package main

import "time"

// samples collects one run's repetitions. Walls are in seconds, keyed by
// end-to-end metric name.
type samples struct {
	walls     map[string][]float64
	intervals []float64            // batch intervals in ms, all stream passes pooled
	peakMB    map[string][]float64 // peak RSS of each p=2 call, by call label
	rounds    int
}

func newSamples() *samples {
	return &samples{walls: make(map[string][]float64), peakMB: make(map[string][]float64)}
}

// peakRSS is the largest over the p=2 calls of each call's median peak RSS.
func (s *samples) peakRSS() float64 {
	peak := 0.0
	for _, xs := range s.peakMB {
		peak = max(peak, median(xs))
	}
	return peak
}

// round runs every call once, starting at calls[first] and wrapping, so
// that over a run each call takes every position and host drift hits all
// of them alike. The insert pass runs only on every b.streamEvery-th round.
// Each call starts when the previous one returned (a closed loop with one
// client). It returns the outcomes by call label.
func (b *bench) round(s *samples, first int, tr *tracer) map[string]outcome {
	outs := make(map[string]outcome, len(calls))
	for i := range calls {
		c := calls[(first+i)%len(calls)]
		if c.label == "stream" && first%b.streamEvery != 0 {
			continue
		}
		settle()
		o := c.run(b, tr)
		if c.p2 {
			s.peakMB[c.label] = append(s.peakMB[c.label], peakRSSMB())
		}
		s.walls[c.metric] = append(s.walls[c.metric], o.wall.Seconds())
		for _, d := range o.intervals {
			s.intervals = append(s.intervals, float64(d)/float64(time.Millisecond))
		}
		outs[c.label] = o
	}
	s.rounds++
	return outs
}

// untilSpent calls fn with the round index until seconds have passed and at
// least minRounds rounds ran. A round that starts is finished, so no call
// loses its sample to the deadline.
func untilSpent(seconds float64, minRounds int, fn func(round int) error) error {
	start := time.Now()
	for r := 0; r < minRounds || time.Since(start).Seconds() < seconds; r++ {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}
