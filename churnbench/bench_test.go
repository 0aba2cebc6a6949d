package main

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/wirenet"
)

func TestMain(m *testing.M) {
	// The wirenet replay's worker processes re-execute the test binary.
	wirenet.MaybeWorker()
	os.Exit(m.Run())
}

// BENCHMARK.json is generated by --manifest; it must not drift from
// the workload and metric tables.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with --manifest:\n%s", got)
	}
}

func TestGenerateIsPureFunctionOfSeed(t *testing.T) {
	for _, w := range workloads {
		w.N = 200
		const ops = 300
		a, err := Generate(w, ops, 5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(w, ops, 5)
		c, _ := Generate(w, ops, 6)
		if !reflect.DeepEqual(a.Steps, b.Steps) || !reflect.DeepEqual(a.G0.Edges(), b.G0.Edges()) {
			t.Errorf("%s: same seed gave different schedules", w.Name)
		}
		if reflect.DeepEqual(a.Steps, c.Steps) {
			t.Errorf("%s: seeds 5 and 6 gave the same schedule", w.Name)
		}
		if a.Ops < ops {
			t.Errorf("%s: %d ops, want >= %d", w.Name, a.Ops, ops)
		}
	}
}

// A scaled-down run of every workload, traced and untraced, plus the
// traced wirenet replay, passes the whole correctness gate:
// serialized-replay digest, determinism across trials, the trace
// wrapper's delivery count, and the bounds.
func TestSmallRunsPassGate(t *testing.T) {
	for _, w := range workloads {
		w.N = 96
		t.Run(w.Name, func(t *testing.T) {
			var scheds []*Schedule
			var trials []*trialResult
			for j := 0; j < 2; j++ {
				sch, err := Generate(w, 150, subSeed(3, j))
				if err != nil {
					t.Fatal(err)
				}
				scheds = append(scheds, sch)
				for _, traced := range []bool{false, true} {
					var tr *tracer
					if traced {
						tr = newTracer()
					}
					res, err := runTrial(w, sch, tr, !traced, subSeed(3, j), false)
					if err != nil {
						t.Fatal(err)
					}
					res.sched = j
					trials = append(trials, res)
				}
			}
			res, err := runTrial(w, scheds[0], newTracer(), false, subSeed(3, 0), true)
			if err != nil {
				t.Fatal(err)
			}
			trials = append(trials, res)
			rep := aggregate(trials, 0)
			if fails := gate(w, scheds, trials, rep); len(fails) > 0 {
				t.Fatal(fails)
			}
			if rep.values["msgs_per_op"] <= 0 || rep.values["ops_per_s"] <= 0 || rep.values["wirenet.ops_per_s"] <= 0 {
				t.Fatalf("empty measurement: %v", rep.values)
			}
		})
	}
}
