package core

import (
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/part"
	"repro/internal/transport"
)

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	g := gen.Complete(5)
	if _, err := Run(Algorithm("nope"), g, Config{P: 2}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
}

func TestRunRejectsMissingP(t *testing.T) {
	g := gen.Complete(5)
	if _, err := Run(AlgoDiTric, g, Config{}); err == nil {
		t.Fatal("want error for P=0")
	}
}

func TestRunRejectsPartitionMismatch(t *testing.T) {
	g := gen.Complete(10)
	pt := part.Uniform(10, 3)
	if _, err := Run(AlgoDiTric, g, Config{P: 4, Partition: pt}); err == nil {
		t.Fatal("want error for partition P mismatch")
	}
	pt2 := part.Uniform(99, 4)
	if _, err := Run(AlgoDiTric, g, Config{P: 4, Partition: pt2}); err == nil {
		t.Fatal("want error for partition N mismatch")
	}
}

func TestRunRejectsLCCOnBaselines(t *testing.T) {
	g := gen.Complete(6)
	for _, algo := range []Algorithm{AlgoTriC, AlgoHavoq} {
		if _, err := Run(algo, g, Config{P: 2, LCC: true}); err == nil {
			t.Fatalf("%s should reject LCC", algo)
		}
	}
}

func TestAlgorithmsListStable(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 6 {
		t.Fatalf("expected 6 algorithms, got %d", len(algos))
	}
	if algos[0] != AlgoDiTric || algos[5] != AlgoTriC {
		t.Fatalf("unexpected order: %v", algos)
	}
}

func TestResultPhasesPopulated(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 91))
	res, err := Run(AlgoCetric, g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{PhasePreprocess, PhaseLocal, PhaseContraction, PhaseGlobal} {
		if _, ok := res.Phases[ph]; !ok {
			t.Fatalf("phase %q missing from result", ph)
		}
	}
	if _, ok := res.Phases[PhasePostprocess]; ok {
		t.Fatal("postprocess phase should only exist with LCC")
	}
	res2, err := Run(AlgoCetric, g, Config{P: 4, LCC: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res2.Phases[PhasePostprocess]; !ok {
		t.Fatal("postprocess phase missing with LCC")
	}
}

func TestPhaseCommAttribution(t *testing.T) {
	g := gen.GNM(400, 3200, 17)
	res, err := Run(AlgoCetric, g, Config{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	// CETRIC communicates in preprocess (degree exchange) and in the global
	// phase; the local phase must be communication-free.
	if res.PhaseComm[PhasePreprocess].TotalPayload == 0 {
		t.Fatal("preprocess should carry the degree exchange")
	}
	if res.PhaseComm[PhaseLocal].TotalPayload != 0 {
		t.Fatalf("CETRIC local phase should be communication-free, got %d words",
			res.PhaseComm[PhaseLocal].TotalPayload)
	}
	if res.PhaseComm[PhaseGlobal].TotalPayload == 0 {
		t.Fatal("global phase should ship neighborhoods")
	}
}

func TestSinglePEHasNoCommunication(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(8, 97))
	for _, algo := range Algorithms() {
		res, err := Run(algo, g, Config{P: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Agg.TotalPayload != 0 || res.Agg.TotalFrames != 0 {
			t.Fatalf("%s at p=1 communicated: %+v", algo, res.Agg)
		}
	}
}

func TestWallClockPopulated(t *testing.T) {
	g := gen.Complete(20)
	res, err := Run(AlgoDiTric, g, Config{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
}

// runRanks runs every rank of a p-process cluster as a goroutine over the
// in-process network and returns each rank's count and error.
func runRanks(t *testing.T, algo Algorithm, g *graph.Graph, p int, cfg Config) ([]uint64, []error) {
	t.Helper()
	net := transport.NewChanNetwork(p)
	defer net.Close()
	counts, errs := make([]uint64, p), make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			counts[r], _, errs[r] = RunRank(algo, g, cfg, ep)
		}(r, ep)
	}
	wg.Wait()
	return counts, errs
}

// TestRunRank drives the per-rank entry point the multi-process cluster
// uses: every rank of TK2D and DITRIC at p=4 agrees on SeqCount, and TK2D
// rejects the configs Run rejects, with the same errors.
func TestRunRank(t *testing.T) {
	g := gen.RMAT(gen.DefaultRMAT(9, 23))
	want := SeqCount(g)
	for _, algo := range []Algorithm{AlgoTK2D, AlgoDiTric} {
		counts, errs := runRanks(t, algo, g, 4, Config{})
		for r := range counts {
			if errs[r] != nil {
				t.Fatalf("%s rank %d: %v", algo, r, errs[r])
			}
			if counts[r] != want {
				t.Errorf("%s rank %d: count %d, want %d", algo, r, counts[r], want)
			}
		}
	}
	for name, cfg := range map[string]Config{
		"codec":     {Codec: "bogus"},
		"lcc":       {LCC: true},
		"partition": {Partition: part.Uniform(uint64(g.NumVertices()), 4)},
	} {
		cfg.P = 4
		_, runErr := Run(AlgoTK2D, g, cfg)
		if runErr == nil {
			t.Fatalf("%s: Run accepted the config", name)
		}
		_, errs := runRanks(t, AlgoTK2D, g, 4, cfg)
		for r, err := range errs {
			if err == nil || err.Error() != runErr.Error() {
				t.Errorf("%s rank %d: RunRank error %v, Run's %v", name, r, err, runErr)
			}
		}
	}
}
