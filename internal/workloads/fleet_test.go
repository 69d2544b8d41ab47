package workloads

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"cbi/internal/cfg"
	"cbi/internal/instrument"
	"cbi/internal/interp"
	"cbi/internal/report"
)

// TestFleetParallelIsDeterministic asserts the tentpole invariant: a
// worker-pool fleet produces a DB bit-identical to the serial loop,
// because seeds derive from the run index and reports are merged in
// run-ID order.
func TestFleetParallelIsDeterministic(t *testing.T) {
	b, err := BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	base := FleetConfig{Runs: 200, Density: 1.0 / 50, SeedBase: 3}

	serialConf := base
	serialConf.Workers = 1
	serial, err := CcryptFleet(b.Program, serialConf)
	if err != nil {
		t.Fatal(err)
	}
	parallelConf := base
	parallelConf.Workers = 8
	parallel, err := CcryptFleet(b.Program, parallelConf)
	if err != nil {
		t.Fatal(err)
	}

	if serial.Len() != parallel.Len() {
		t.Fatalf("runs: serial %d, parallel %d", serial.Len(), parallel.Len())
	}
	for i := range serial.Reports {
		se, pe := serial.Reports[i].Encode(), parallel.Reports[i].Encode()
		if !bytes.Equal(se, pe) {
			t.Fatalf("report %d differs between serial and 8-worker fleets", i)
		}
	}
}

// TestFleetMatchesFreshRuns holds the fleet's economies — a world per
// worker reset per run, VMs recycled by the shared Compiled — to the
// definition of a fleet: report i is the report of a run on a new
// tree-walking VM, in ccrypt's case against a new world, whatever the
// worker count.
func TestFleetMatchesFreshRuns(t *testing.T) {
	ccrypt, err := BuildCcrypt(instrument.SchemeSet{Returns: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := BuildBC(instrument.SchemeSet{ScalarPairs: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	fc := FleetConfig{Runs: 150, Density: 1.0 / 20, SeedBase: 11, TraceCapacity: 8}
	for _, tc := range []struct {
		name  string
		prog  *cfg.Program
		fleet func(*cfg.Program, FleetConfig) (*report.DB, error)
		conf  func(seed int64) interp.Config
	}{
		{"ccrypt", ccrypt.Program, CcryptFleet, func(seed int64) interp.Config {
			return interp.Config{Seed: seed, CountdownSeed: seed*40503 + 7,
				Intrinsics: NewCcryptWorld(seed*2654435761 + 1).Intrinsics()}
		}},
		{"bc", bc.Program, BCFleet, func(seed int64) interp.Config {
			return interp.Config{Seed: seed*6364136223846793005 + 1442695040888963407,
				CountdownSeed: seed*40503 + 11}
		}},
	} {
		want := make([][]byte, fc.Runs)
		for i := range want {
			conf := tc.conf(fc.SeedBase + int64(i))
			conf.Engine, conf.Density, conf.TraceCapacity = interp.EngineTree, fc.Density, fc.TraceCapacity
			want[i] = ReportOf(tc.name, uint64(i), interp.Run(tc.prog, conf)).Encode()
		}
		for _, workers := range []int{1, 4} {
			fc.Workers = workers
			db, err := tc.fleet(tc.prog, fc)
			if err != nil {
				t.Fatal(err)
			}
			if db.Len() != fc.Runs {
				t.Fatalf("%s, %d workers: %d reports, want %d", tc.name, workers, db.Len(), fc.Runs)
			}
			for i, rep := range db.Reports {
				if !bytes.Equal(rep.Encode(), want[i]) {
					t.Fatalf("%s, %d workers: report %d differs from a fresh tree-walker run", tc.name, workers, i)
				}
			}
		}
	}
}

// TestFleetParallelSubmitsEveryReport checks that the concurrent Submit
// path still delivers exactly one report per run.
func TestFleetParallelSubmitsEveryReport(t *testing.T) {
	b, err := BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	var submitted atomic.Int64
	seen := make([]atomic.Bool, 60)
	db, err := BCFleet(b.Program, FleetConfig{
		Runs: 60, SeedBase: 5, Workers: 4,
		Submit: func(_ context.Context, r *report.Report) error {
			submitted.Add(1)
			if seen[r.RunID].Swap(true) {
				t.Errorf("run %d submitted twice", r.RunID)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := submitted.Load(); got != 60 {
		t.Errorf("submitted %d reports, want 60", got)
	}
	if db.Len() != 60 {
		t.Errorf("db has %d reports, want 60", db.Len())
	}
}

// TestFleetSubmitErrorStopsFleet: a failing submitter aborts the fleet
// with its error, as the serial loop did.
func TestFleetSubmitErrorStopsFleet(t *testing.T) {
	b, err := BuildBC(instrument.SchemeSet{ScalarPairs: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("collector down")
	_, err = BCFleet(b.Program, FleetConfig{
		Runs: 40, SeedBase: 5, Workers: 4,
		Submit: func(_ context.Context, r *report.Report) error {
			if r.RunID >= 10 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fleet error = %v, want %v", err, boom)
	}
}
