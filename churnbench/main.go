// Command churnbench is the repository's end-to-end benchmark: it
// drives internal/dist.Simulation through seeded churn schedules on the
// simnet fabric, checks that the healed network is correct, and
// reports wall-clock throughput and latency next to the paper's round
// and message counts, plus a per-layer split measured at the public
// dist and transport boundaries, wirenet's included.
//
// Usage (from the repository root):
//
//	bash churnbench/run.sh --workload sim-open --seed 1 --seconds 30 --trace 0
//
// run.sh builds this module into .bench_build and runs it. One run
// generates the workload's schedules from the seed (untimed), then
// makes passes — one trial per schedule, each a freshly built network
// driven through the whole schedule — for up to --seconds (at least
// one pass), and reports medians and totals over the trials. A
// schedule is a fixed number of operations, not a duration: cost per
// operation grows with history, so a time-boxed trial would compare
// different regimes. Schedules differ a lot in cost (one drains its
// backlog in half the rounds of another), which is why a run measures
// many of them.
//
// Every metric is printed by name with its unit, then the correctness
// gate runs; failures go to standard error. The last line of standard
// output is a JSON object: with --trace 0 it holds the end-to-end
// metrics BENCHMARK.json lists; with --trace 1 the run alternates
// untraced and traced trials over the first tracedSchedules schedules,
// replays the first schedule on wirenet (traced) as well, and the JSON
// holds every per-layer metric. The traced trials wrap the backend to
// time pulses and handlers and keep spans in memory; the spans of the
// first traced trial and of the wirenet replay are written as JSON
// lines (plus a CPU profile of the first traced trial) under --out.
// --manifest prints the BENCHMARK.json that describes the workloads and
// metrics.
//
// wirenet is measured in the traced runs only. Its wall time is a
// chain of socket wake-ups across three processes, and on a shared
// 2-vCPU VM that follows the host's scheduling far more than the
// program: ten seeded runs of the same code spread by up to a third of
// their median, more than any end-to-end bound may allow.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/wirenet"
)

// Workload is one benchmark input: topology size, schedule shape and
// the network configuration it runs on.
type Workload struct {
	Name string
	Why  string
	N    int
	// Schedules is how many seeded schedules one run measures: a run's
	// numbers are medians and totals over these inputs, so one unlucky
	// schedule does not move them. It is sized so that one pass over
	// them takes about 25 s on a 2-vCPU VM.
	Schedules int
	// Blocking selects the paper's alternating loop of blocking calls
	// (inserts, then DeleteBatch bursts of 1..MaxBurst); otherwise the
	// open loop on the round clock (see insertP and maxGap), with a
	// FlapP share of inserts followed at once by the new node's
	// deletion.
	Blocking bool
	MaxBurst int
	FlapP    float64

	CoalesceWindow int // 0 = coalescing queue off
	AuditPeriod    int // 0 = audit off
}

// workloads all start from a power-law graph (preferential attachment,
// 3 edges per node). Why is each one's reason for being here, recorded
// in BENCHMARK.json.
var workloads = []Workload{
	{
		Name: "sim-open", N: 1024, Schedules: 17,
		Why: "open loop on simnet, about 10 ops pending per tick: the admission-heavy workload where Submit and Tick re-run deleteRegion",
	},
	{
		Name: "sim-blocking", N: 8192, Schedules: 16,
		Blocking: true, MaxBurst: 4,
		Why: "blocking Insert and DeleteBatch bursts of 1-4 at n=8192: admission idle, verification and the batch claim phase dominate",
	},
	{
		Name: "sim-flap-audit", N: 1024, Schedules: 16, FlapP: 0.35,
		CoalesceWindow: 4, AuditPeriod: 128,
		Why: "sim-open plus flap pairs with coalescing (window 4) and audit (period 128): the only workload for those two layers",
	},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

func main() {
	// Wire worker processes re-execute this binary; in one of them
	// MaybeWorker runs the shard and never returns.
	wirenet.MaybeWorker()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "churnbench:", err)
		os.Exit(2)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload name (see --manifest)")
		seed     = flag.Int64("seed", 1, "schedule seed")
		seconds  = flag.Int("seconds", runSeconds, "make passes over the schedules for up to this many seconds (at least one pass)")
		traceOn  = flag.Int("trace", 0, "1: alternate traced trials and report per-layer metrics")
		outDir   = flag.String("out", ".bench_build/churnbench-trace", "directory for spans and CPU profiles of traced runs")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *manifest {
		return printManifest()
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	// The load is sized for a 2-vCPU box: one generator process, and in
	// the wirenet replay two worker processes beside it.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	traced := *traceOn == 1

	genStart := time.Now()
	k := w.Schedules
	if traced {
		k = min(k, tracedSchedules)
	}
	scheds := make([]*Schedule, k)
	for j := range scheds {
		var err error
		if scheds[j], err = Generate(w, scheduleOps, subSeed(*seed, j)); err != nil {
			return err
		}
	}
	genS := time.Since(genStart).Seconds()

	trials, fails := runPasses(w, scheds, *seed, traced, time.Duration(*seconds)*time.Second, *outDir)
	rep := aggregate(trials, genS)
	fails = append(fails, gate(w, scheds, trials, rep)...)
	return report(w, rep, traced, fails)
}

// tracedSchedules caps the schedules of a traced run, which drives
// each of them twice (untraced and traced); per-layer numbers are
// medians over trials and need fewer inputs than the end-to-end ones.
const tracedSchedules = 6

// maxSchedules bounds Workload.Schedules, so that subSeed's ranges never
// overlap.
const maxSchedules = 64

// subSeed is schedule j's seed within the run seeded seed; runs with
// different seeds never share a schedule.
func subSeed(seed int64, j int) int64 { return seed*maxSchedules + int64(j) }

// passBudget stops starting new passes so that a run ends well inside
// its 180-second limit.
const passBudget = 140 * time.Second

// runPasses repeats passes — one trial of every schedule, in trace mode
// an untraced and a traced trial of every schedule — while the next
// pass, as long as the last one took, still ends within the budget; at
// least one pass. Whole passes keep every schedule equally weighted.
// An untimed warm-up trial comes first. A traced run ends with a traced trial of the first schedule on
// wirenet.
func runPasses(w Workload, scheds []*Schedule, seed int64, traced bool, budget time.Duration, outDir string) ([]*trialResult, []string) {
	var trials []*trialResult
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	// One untimed trial first grows the heap and warms the code paths,
	// so that the first timed trial does not run cold.
	if _, err := runTrial(w, scheds[0], nil, false, subSeed(seed, 0), false); err != nil {
		return nil, []string{fmt.Sprintf("warm-up trial: %v", err)}
	}
	start := time.Now()
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for j, sch := range scheds {
			for _, on := range modes {
				var tr *tracer
				if on {
					tr = newTracer()
				}
				// The first traced trial keeps its spans and a CPU profile.
				keep := on && pass == 0 && j == 0
				var prof *os.File
				if keep {
					var err error
					if prof, err = startProfile(spanPath(outDir, w.Name, seed, "cpu.pprof")); err != nil {
						return trials, []string{err.Error()}
					}
				}
				res, err := runTrial(w, sch, tr, pass == 0 && !on, subSeed(seed, j), false)
				if keep {
					pprof.StopCPUProfile()
					if cerr := prof.Close(); cerr != nil && err == nil {
						err = cerr
					}
					if werr := tr.write(spanPath(outDir, w.Name, seed, "spans.jsonl")); werr != nil && err == nil {
						err = werr
					}
				}
				if res != nil {
					res.sched, res.pass = j, pass
					trials = append(trials, res)
				}
				if err != nil {
					return trials, []string{fmt.Sprintf("pass %d schedule %d traced=%v: %v", pass, j, on, err)}
				}
				lat, rounds := metrics.Summarize(res.latMs), metrics.Summarize(res.latRounds)
				fmt.Printf("pass %d schedule %d traced=%v: churn %.3f s, setup %.4f s, %d ops, %.2f msgs/op, p50 %.0f rounds %.3f ms\n",
					pass, j, on, res.churnS, metrics.Summarize(res.setupS).P50, res.attempted,
					float64(res.net.msgs)/float64(res.attempted), rounds.P50, lat.P50)
			}
		}
		end := time.Since(start) + time.Since(passStart)
		if end > budget || end > passBudget {
			break
		}
	}
	if !traced {
		return trials, nil
	}
	tr := newTracer()
	res, err := runTrial(w, scheds[0], tr, false, subSeed(seed, 0), true)
	if res != nil {
		trials = append(trials, res)
	}
	if werr := tr.write(spanPath(outDir, w.Name+"-wirenet", seed, "spans.jsonl")); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return trials, []string{fmt.Sprintf("wirenet replay of schedule 0: %v", err)}
	}
	fmt.Printf("wirenet schedule 0 traced=true: churn %.3f s, %d ops, %.2f msgs/op\n",
		res.churnS, res.attempted, float64(res.net.msgs)/float64(res.attempted))
	return trials, nil
}

func startProfile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// runReport is a run's aggregated numbers.
type runReport struct {
	attempted, failed int
	values            map[string]float64
	latencySamples    int
	digest            string
}

func report(w Workload, rep *runReport, traced bool, fails []string) error {
	fmt.Printf("workload %s: %s\n", w.Name, w.Why)
	fmt.Printf("digest %s; %d ops attempted, %d failed; latency samples %d\n",
		rep.digest, rep.attempted, rep.failed, rep.latencySamples)
	show := func(defs []metricDef) {
		for _, m := range defs {
			fmt.Printf("  %-28s %14.6g %s\n", m.Name, rep.values[m.Name], m.Unit)
		}
	}
	fmt.Println("end-to-end:")
	show(endToEnd)
	fmt.Println("per-layer:")
	show(perLayer)
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", f)
	}

	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(fails) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, m := range defs {
		if !m.listed() {
			continue
		}
		v := rep.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, out.Correct = 0, false
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if out.Attempted < 1 {
		out.Attempted, out.Correct = 1, false
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printManifest writes BENCHMARK.json from the tables in this package.
func printManifest() error {
	b, err := manifestJSON()
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "churnbench/run.sh"}, Paths: []string{"churnbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		if d.listed() {
			m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
		}
	}
	for _, d := range perLayer {
		if d.listed() {
			m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
		}
	}
	return json.MarshalIndent(m, "", "  ")
}

// runSeconds is BENCHMARK.json's run_seconds. One pass over a
// workload's schedules takes about 25 s on a 2-vCPU VM, so a run makes
// one pass.
const runSeconds = 30
