package comm

import (
	"encoding/binary"
	"fmt"
)

// Wire codecs. A Codec turns one record payload (machine words) into wire
// bytes and back. The queue applies the codec of a record's logical channel
// at flush time — the algorithms above keep producing and consuming plain
// []uint64 payloads — so the only thing a codec changes is the number of
// bytes a frame occupies on the wire (reported as Metrics.EncodedBytes
// against Metrics.RawBytes).
//
// Sender and receiver must agree: every PE of a run has to install the same
// codec on the same channel before any record for it is in flight.
//
// Three codecs are provided:
//
//   - Raw: 8 little-endian bytes per word, the seed wire format.
//   - Varint: LEB128 per word — wins when words are small (degrees, Δ
//     counts, wedge endpoints on small graphs).
//   - DeltaVarint: first word LEB128, every further word as the
//     zigzag-encoded difference to its predecessor — wins big on sorted,
//     clustered sequences like adjacency rows, and stays correct (just not
//     smaller) on arbitrary payloads because the deltas wrap mod 2^64.
type Codec interface {
	// Name returns the codec's stable wire-policy name.
	Name() string
	// AppendEncoded appends the encoding of words to dst and returns it.
	AppendEncoded(dst []byte, words []uint64) []byte
	// AppendDecoded appends the words encoded in data to dst and returns
	// it. data must contain exactly one encoded payload.
	AppendDecoded(dst []uint64, data []byte) ([]uint64, error)
}

// The built-in codecs.
var (
	Raw         Codec = rawCodec{}
	Varint      Codec = varintCodec{}
	DeltaVarint Codec = deltaVarintCodec{}
)

// CodecByName resolves "raw", "varint", or "deltavarint".
func CodecByName(name string) (Codec, error) {
	switch name {
	case "raw":
		return Raw, nil
	case "varint":
		return Varint, nil
	case "deltavarint":
		return DeltaVarint, nil
	default:
		return nil, fmt.Errorf("comm: unknown codec %q (want raw, varint, or deltavarint)", name)
	}
}

type rawCodec struct{}

func (rawCodec) Name() string { return "raw" }

func (rawCodec) AppendEncoded(dst []byte, words []uint64) []byte {
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func (rawCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	if len(data)%8 != 0 {
		return dst, fmt.Errorf("comm: raw payload length %d is not a multiple of 8", len(data))
	}
	if cap(dst)-len(dst) < len(data)/8 {
		dst = append(make([]uint64, 0, len(dst)+len(data)/8), dst...)
	}
	for i := 0; i < len(data); i += 8 {
		dst = append(dst, binary.LittleEndian.Uint64(data[i:]))
	}
	return dst, nil
}

type varintCodec struct{}

func (varintCodec) Name() string { return "varint" }

func (varintCodec) AppendEncoded(dst []byte, words []uint64) []byte {
	for _, w := range words {
		dst = binary.AppendUvarint(dst, w)
	}
	return dst
}

func (varintCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	// A word takes at least one byte, so len(data) spare words always
	// suffice. Short of that, count the varints — each ends in exactly one
	// byte below 0x80 — so dst grows at most once, to the exact size.
	if cap(dst)-len(dst) < len(data) {
		words := 0
		for _, c := range data {
			if c < 0x80 {
				words++
			}
		}
		dst = append(make([]uint64, 0, len(dst)+words), dst...)
	}
	for len(data) > 0 {
		w, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("comm: truncated varint payload")
		}
		data = data[n:]
		dst = append(dst, w)
	}
	return dst, nil
}

type deltaVarintCodec struct{}

func (deltaVarintCodec) Name() string { return "deltavarint" }

// zigzag maps small signed deltas to small unsigned varints.
func zigzag(d uint64) uint64   { return (d << 1) ^ uint64(int64(d)>>63) }
func unzigzag(z uint64) uint64 { return (z >> 1) ^ -(z & 1) }

func (deltaVarintCodec) AppendEncoded(dst []byte, words []uint64) []byte {
	if len(words) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, words[0])
	prev := words[0]
	for _, w := range words[1:] {
		// The difference wraps mod 2^64, so decoding is exact for any
		// payload, including descending sequences and ^uint64(0).
		dst = binary.AppendUvarint(dst, zigzag(w-prev))
		prev = w
	}
	return dst
}

func (deltaVarintCodec) AppendDecoded(dst []uint64, data []byte) ([]uint64, error) {
	if len(data) == 0 {
		return dst, nil
	}
	first, n := binary.Uvarint(data)
	if n <= 0 {
		return dst, fmt.Errorf("comm: truncated delta-varint payload")
	}
	data = data[n:]
	dst = append(dst, first)
	prev := first
	for len(data) > 0 {
		z, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, fmt.Errorf("comm: truncated delta-varint payload")
		}
		data = data[n:]
		prev += unzigzag(z)
		dst = append(dst, prev)
	}
	return dst, nil
}
