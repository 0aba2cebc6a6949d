package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wirenet"
)

const (
	// checkEvery is the checkpoint interval in submitted operations:
	// drain (open loop), VerifyDelta, degree-ratio read.
	checkEvery = 25
	// verifySample is VerifyDelta's opportunistic extra sweep.
	verifySample = 8
	// A trial builds its network at least setupMinReps times and until
	// setupMinTime has been spent building; every build is timed and the
	// last one is driven.
	setupMinReps = 3
	setupMinTime = 30 * time.Millisecond
	// wireShards sizes the wire fabric for a 2-vCPU box.
	wireShards = 2
	// drainBound caps the ticks of one drain: beyond it the engine is
	// stalled, which is a protocol failure, never slowness.
	drainBound = 1 << 20
)

// fabric is the delivered-traffic account of one trial, summed across
// the transport's stats resets.
type fabric struct {
	msgs, words, election, sync, audit int
}

// trialResult is everything one trial measured.
type trialResult struct {
	traced      bool
	wire        bool // on wirenet rather than simnet
	sched, pass int  // schedule index within the run, pass number
	setupS      []float64
	churnS      float64

	attempted, completed int
	firstErr             error

	latMs, latRounds   []float64 // per completed op (cancellations excluded)
	insertUs, deleteMs []float64 // op latency by kind
	batchMs            []float64 // DeleteBatch calls
	submitUs, tickUs   []float64
	submitNs, tickNs   int64
	pendingOpRounds    int
	inflightSum        int
	inflightPeak       int

	net        fabric
	claimMsgs  int
	batchMsgs  int
	batchWaves []float64

	verifyDeltaMs []float64
	verifyDeltaNs int64
	verifyFullMs  float64
	degreeMax     float64
	digest        string
	stretch       *stretchCheck

	allocs, bytes uint64
	gcFrac        float64
	heapPeakMB    float64
	workerCPUS    float64

	audit     audit.Stats
	coalesce  dist.CoalesceStats
	cancelled map[int]bool // submission seqs the coalescing queue elided

	// Traced trials only.
	pulses       int
	pulseNs      int64
	pulseUs      []float64
	handlerNs    int64
	handlerCalls int64
	delivered    int64
	tickSelfNs   int64 // inside Tick, minus the pulses it drove
	engineNs     int64 // inside every dist call
	engineSelfNs int64 // the same minus the pulses inside them
}

// network is one built simulation and its bare backend's stats.
type network struct {
	sim   *dist.Simulation
	stats func() transport.Stats
}

// build constructs the workload's network over g0: backend (simnet,
// or wirenet if wire), optional trace wrapper, simulation, audit and
// coalescing. This is setup_s.
func build(w Workload, g0 *graph.Graph, tr *tracer, wire bool) (*network, error) {
	var backend transport.Transport
	var stats func() transport.Stats
	if wire {
		h, err := wirenet.New(wirenet.Config{Shards: wireShards})
		if err != nil {
			return nil, fmt.Errorf("wire backend: %w", err)
		}
		backend, stats = h, h.Stats
		if tr != nil {
			backend = tracedWire{h, tr}
		}
	} else {
		n := simnet.New()
		backend, stats = n, n.Stats
		if tr != nil {
			backend = tracedSim{n, tr}
		}
	}
	s := dist.NewSimulationOn(g0, backend)
	if w.AuditPeriod > 0 {
		if err := s.EnableAudit(audit.Config{Period: w.AuditPeriod}); err != nil {
			closeSim(s)
			return nil, err
		}
	}
	if w.CoalesceWindow > 0 {
		s.SetCoalescing(dist.CoalesceConfig{Window: w.CoalesceWindow})
	}
	return &network{sim: s, stats: stats}, nil
}

// closeSim shuts the network down and waits until every worker process
// it started has exited and been reaped.
func closeSim(s *dist.Simulation) {
	pids := s.WorkerPIDs()
	_ = s.Close() // Close never fails; the kill below is the guarantee
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for time.Now().Before(deadline) {
			if _, err := os.Stat("/proc/" + strconv.Itoa(pid)); err != nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// driver runs one trial's schedule against a built network.
type driver struct {
	w     Workload
	sch   *Schedule
	s     *dist.Simulation
	stats func() transport.Stats
	tr    *tracer
	r     *trialResult
	last  transport.Stats
}

// runTrial builds a fresh network (several times), drives the whole
// schedule through it inside the timed window, then verifies the
// healed network outside the window.
func runTrial(w Workload, sch *Schedule, tr *tracer, withStretch bool, seed int64, wire bool) (*trialResult, error) {
	r := &trialResult{traced: tr != nil, wire: wire, cancelled: map[int]bool{}}
	var nw *network
	var spent time.Duration
	for rep := 0; rep < setupMinReps || spent < setupMinTime; rep++ {
		if nw != nil {
			closeSim(nw.sim)
		}
		runtime.GC()
		id := tr.begin("setup", 0)
		start := time.Now()
		var err error
		nw, err = build(w, sch.G0, tr, wire)
		dt := time.Since(start)
		spent += dt
		r.setupS = append(r.setupS, dt.Seconds())
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	defer closeSim(nw.sim)

	d := &driver{w: w, sch: sch, s: nw.sim, stats: nw.stats, tr: tr, r: r}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, cpu0 := gcCPU()
	start := time.Now()
	var err error
	if w.Blocking {
		err = d.blocking()
	} else {
		err = d.open()
	}
	r.churnS = time.Since(start).Seconds()
	gc1, cpu1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return r, err
	}
	r.allocs = ms1.Mallocs - ms0.Mallocs
	r.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	if cpu1 > cpu0 {
		r.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
	d.sampleHeap()

	// Outside the timed window: the authoritative full check, the
	// healed-graph digest, stretch, and the layer counters.
	id := tr.begin("verify_full", 0)
	vstart := time.Now()
	err = nw.sim.Verify()
	r.verifyFullMs = ms(time.Since(vstart))
	tr.end(id)
	if err != nil {
		return r, fmt.Errorf("final Verify: %w", err)
	}
	phys, gp := nw.sim.Physical(), nw.sim.GPrime()
	r.digest = digest(phys, gp)
	if withStretch {
		r.stretch = measureStretch(phys, gp, nw.sim.LiveNodes(), nw.sim.NumEver(), seed)
	}
	r.audit = nw.sim.AuditStats()
	r.coalesce = nw.sim.CoalesceStats()
	r.workerCPUS = workerCPU(nw.sim.WorkerPIDs())
	if tr != nil {
		r.pulses, r.pulseNs, r.pulseUs = tr.pulses, tr.pulseNs, tr.pulseUs
		r.handlerNs, r.handlerCalls = tr.handlerNs.Load(), tr.handlers.Load()
		r.delivered = tr.delivered.Load()
	}
	return r, nil
}

// account folds the transport's stats since the last read into the
// trial's fabric totals. Blocking Delete and DeleteBatch reset the
// stats when they start, so after one of them the whole current count
// is new; everywhere else only the growth is.
func (d *driver) account(reset bool) {
	cur := d.stats()
	prev := d.last
	if reset {
		prev = transport.Stats{}
	}
	d.r.net.msgs += cur.Messages - prev.Messages
	d.r.net.words += cur.TotalWords - prev.TotalWords
	d.r.net.election += cur.ElectionMessages - prev.ElectionMessages
	d.r.net.sync += cur.SyncMessages - prev.SyncMessages
	d.r.net.audit += cur.AuditMessages - prev.AuditMessages
	d.last = cur
}

// engineCall times one call into dist (Submit, Tick or a blocking
// call) under a span that the pulses it drives nest under.
func (d *driver) engineCall(name string, op int, call func() error) (time.Duration, error) {
	var p0 int64
	if d.tr != nil {
		p0 = d.tr.pulseNs
	}
	id, prev := d.tr.enter(name, op)
	start := time.Now()
	err := call()
	dt := time.Since(start)
	d.tr.leave(id, prev)
	if d.tr != nil {
		self := int64(dt) - (d.tr.pulseNs - p0)
		d.r.engineNs += int64(dt)
		d.r.engineSelfNs += self
		if name == "tick" {
			d.r.tickSelfNs += self
		}
	}
	return dt, err
}

// tick advances the engine one round and samples its queues.
func (d *driver) tick() {
	dt, _ := d.engineCall("tick", 0, func() error { d.s.Tick(); return nil })
	d.r.tickNs += int64(dt)
	d.r.tickUs = append(d.r.tickUs, us(dt))
	d.r.pendingOpRounds += d.s.PendingOps()
	in := d.s.InFlight()
	d.r.inflightSum += in
	if in > d.r.inflightPeak {
		d.r.inflightPeak = in
	}
}

// drain ticks until the engine is idle.
func (d *driver) drain() error {
	id, prev := d.tr.enter("drain", 0)
	defer d.tr.leave(id, prev)
	for n := 0; !d.s.Idle(); n++ {
		if n >= drainBound {
			return fmt.Errorf("engine stalled: %d pending, %d in flight after %d ticks",
				d.s.PendingOps(), d.s.InFlight(), n)
		}
		d.tick()
	}
	return nil
}

// checkpoint runs the incremental verification and the degree gate.
func (d *driver) checkpoint() error {
	if !d.w.Blocking {
		if err := d.drain(); err != nil {
			return err
		}
	}
	id := d.tr.begin("verify_delta", 0)
	start := time.Now()
	err := d.s.VerifyDelta(verifySample)
	dt := time.Since(start)
	d.tr.end(id)
	d.r.verifyDeltaNs += int64(dt)
	d.r.verifyDeltaMs = append(d.r.verifyDeltaMs, ms(dt))
	if err != nil {
		return fmt.Errorf("VerifyDelta: %w", err)
	}
	if ratio, _ := d.s.MaxDegreeRatio(); ratio > d.r.degreeMax {
		d.r.degreeMax = ratio
	}
	d.sampleHeap()
	return nil
}

func (d *driver) sampleHeap() {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		if mb := float64(s[0].Value.Uint64()) / (1 << 20); mb > d.r.heapPeakMB {
			d.r.heapPeakMB = mb
		}
	}
}

// open is the open loop on the round clock: each step waits its drawn
// gap in rounds, whatever the repairs are doing, then submits.
// Completion is timestamped by the engine's observer.
func (d *driver) open() error {
	r := d.r
	submitAt := make([]time.Time, d.sch.Ops+1)
	kinds := make([]dist.OpKind, d.sch.Ops+1)
	done := make([]bool, d.sch.Ops+1)
	d.s.SetObserver(func(ev dist.Event) {
		now := time.Now()
		if ev.Seq <= 0 || ev.Seq >= len(done) || done[ev.Seq] {
			return
		}
		switch ev.Kind {
		case dist.EventRepairDone, dist.EventInsertApplied:
			lat := now.Sub(submitAt[ev.Seq])
			r.latMs = append(r.latMs, ms(lat))
			r.latRounds = append(r.latRounds, float64(ev.Latency))
			if kinds[ev.Seq] == dist.OpInsert {
				r.insertUs = append(r.insertUs, us(lat))
			} else {
				r.deleteMs = append(r.deleteMs, ms(lat))
			}
			d.tr.interval("op", ev.Seq, submitAt[ev.Seq])
		case dist.EventOpCancelled:
			r.cancelled[ev.Seq] = true
		case dist.EventOpRejected:
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("op %d (%v) rejected: %w", ev.Seq, ev.Op, ev.Err)
			}
			done[ev.Seq] = true
			return
		default:
			return
		}
		done[ev.Seq] = true
		r.completed++
	})
	defer d.s.SetObserver(nil)

	seq := 0
	for _, st := range d.sch.Steps {
		for g := 0; g < st.Gap; g++ {
			d.tick()
		}
		before := seq
		for _, op := range st.Ops {
			seq++
			kinds[seq] = op.Kind
			submitAt[seq] = time.Now()
			dt, err := d.engineCall("submit", seq, func() error { return d.s.Submit(op) })
			r.attempted++
			if err != nil {
				return fmt.Errorf("submit %v: %w", op, err)
			}
			r.submitNs += int64(dt)
			r.submitUs = append(r.submitUs, us(dt))
		}
		// A flap pair is never split by a checkpoint's drain.
		if seq/checkEvery > before/checkEvery {
			if err := d.checkpoint(); err != nil {
				return err
			}
		}
	}
	if err := d.drain(); err != nil {
		return err
	}
	d.account(false)
	return nil
}

// blocking is the paper's alternating adversary loop on the blocking
// calls: one Insert, then a burst of 1–4 deletions (Delete for one,
// DeleteBatch otherwise). Each call's return is its ops' completion.
func (d *driver) blocking() error {
	r := d.r
	for _, st := range d.sch.Steps {
		d.account(false)
		op := st.Ops[0]
		k := len(st.Ops)
		r.attempted += k
		var dt time.Duration
		var err error
		var rounds int
		switch {
		case op.Kind == dist.OpInsert:
			dt, err = d.engineCall("insert", 0, func() error { return d.s.Insert(op.V, op.Nbrs) })
			d.account(false)
			r.insertUs = append(r.insertUs, us(dt))
		case k == 1:
			dt, err = d.engineCall("delete", 0, func() error { return d.s.Delete(op.V) })
			d.account(true)
			rounds = d.s.LastRecovery().Rounds
			r.deleteMs = append(r.deleteMs, ms(dt))
		default:
			vs := make([]graph.NodeID, k)
			for i, o := range st.Ops {
				vs[i] = o.V
			}
			dt, err = d.engineCall("delete_batch", 0, func() error { return d.s.DeleteBatch(vs) })
			d.account(true)
			b := d.s.LastBatch()
			r.claimMsgs += b.ClaimMessages
			r.batchMsgs += b.Messages
			r.batchWaves = append(r.batchWaves, float64(b.Waves))
			rounds = b.Rounds
			r.batchMs = append(r.batchMs, ms(dt))
		}
		if err != nil {
			r.firstErr = fmt.Errorf("%v: %w", op, err)
			return r.firstErr
		}
		r.completed += k
		for i := 0; i < k; i++ {
			r.latMs = append(r.latMs, ms(dt))
			r.latRounds = append(r.latRounds, float64(rounds))
		}
		if r.attempted/checkEvery > (r.attempted-k)/checkEvery {
			if err := d.checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// gcCPU reads the runtime's cumulative GC and total CPU seconds.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		return s[0].Value.Float64(), s[1].Value.Float64()
	}
	return 0, 0
}

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// workerCPU sums user+system CPU seconds of the wire worker processes.
func workerCPU(pids []int) float64 {
	total := 0.0
	for _, pid := range pids {
		b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
		if err != nil {
			continue
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) < 13 {
			continue
		}
		ut, _ := strconv.ParseFloat(f[11], 64)
		st, _ := strconv.ParseFloat(f[12], 64)
		total += (ut + st) / clockTicks
	}
	return total
}

// peakRSSMB reads the process's VmHWM.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
