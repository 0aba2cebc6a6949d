package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wirenet"
)

// span is one timed interval of the traced run. Spans of one operation
// share Op (its submission sequence number); a pulse's parent is the
// Tick or blocking call that drove it. Handler time is aggregated per
// pulse (HandlerNs over Handlers calls), not recorded per message.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent,omitempty"`
	Name      string `json:"name"`
	Op        int    `json:"op,omitempty"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	HandlerNs int64  `json:"handler_ns,omitempty"`
	Handlers  int64  `json:"handlers,omitempty"`
}

// tracer keeps one traced trial's spans in memory and the counters
// measured at the transport boundary: pulse time, and handler time and
// calls summed inside each pulse. A nil *tracer records nothing, so
// the untraced trials run the same code with tracing off.
type tracer struct {
	t0     time.Time
	spans  []span
	parent int // innermost open driver-side span (Tick or blocking call)

	pulses    int
	pulseNs   int64
	pulseUs   []float64
	handlerNs atomic.Int64
	handlers  atomic.Int64
	delivered atomic.Int64 // non-timer handler calls: network messages
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent, Name: name, Op: op, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.now()
}

// enter opens a span that pulses nest under until leave.
func (t *tracer) enter(name string, op int) (id, prev int) {
	if t == nil {
		return 0, 0
	}
	id = t.begin(name, op)
	prev, t.parent = t.parent, id
	return id, prev
}

func (t *tracer) leave(id, prev int) {
	if t == nil {
		return
	}
	t.end(id)
	t.parent = prev
}

// interval records a span whose start was taken earlier (an operation
// from submission to its completion event).
func (t *tracer) interval(name string, op int, start time.Time) {
	if t == nil {
		return
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op,
		Start: int64(start.Sub(t.t0)), End: t.now()})
}

// pulse times one backend pulse and the handler calls inside it.
func (t *tracer) pulse(run func() int) int {
	h0, c0 := t.handlerNs.Load(), t.handlers.Load()
	id := t.begin("pulse", 0)
	start := time.Now()
	n := run()
	d := time.Since(start)
	t.end(id)
	sp := &t.spans[id-1]
	sp.HandlerNs = t.handlerNs.Load() - h0
	sp.Handlers = t.handlers.Load() - c0
	t.pulses++
	t.pulseNs += int64(d)
	t.pulseUs = append(t.pulseUs, float64(d)/1e3)
	return n
}

// handler wraps a processor's message handler with call timing. The
// counters are atomic because simnet's ParallelStep, forwarded below,
// runs handlers on several goroutines.
func (t *tracer) handler(h transport.Handler) transport.Handler {
	return func(n transport.Endpoint, m transport.Message) {
		start := time.Now()
		h(n, m)
		t.handlerNs.Add(int64(time.Since(start)))
		t.handlers.Add(1)
		if !m.Timer {
			t.delivered.Add(1)
		}
	}
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSim wraps the simnet backend. Embedding the concrete network
// forwards its whole method set, so every optional capability dist
// probes for (CancelTimers, ParallelStepper) is present exactly as on
// the bare backend, and nothing else is; only node registration and
// the pulse are intercepted.
type tracedSim struct {
	*simnet.Network
	tr *tracer
}

func (w tracedSim) AddNode(id transport.NodeID, h transport.Handler) {
	w.Network.AddNode(id, w.tr.handler(h))
}

func (w tracedSim) Step() int { return w.tr.pulse(w.Network.Step) }

func (w tracedSim) ParallelStep() int { return w.tr.pulse(w.Network.ParallelStep) }

// tracedWire wraps the wire hub the same way. The hub is a native
// transport.Driver, and so is the wrapper: CancelTimers, SkewClock,
// Validate and WorkerPIDs are forwarded by embedding.
type tracedWire struct {
	*wirenet.Hub
	tr *tracer
}

func (w tracedWire) AddNode(id transport.NodeID, h transport.Handler) {
	w.Hub.AddNode(id, w.tr.handler(h))
}

func (w tracedWire) Pulse() transport.Quiet {
	var q transport.Quiet
	w.tr.pulse(func() int { q = w.Hub.Pulse(); return q.Delivered })
	return q
}

func (w tracedWire) Step() int { return w.Pulse().Delivered }

var (
	_ transport.Transport = tracedSim{}
	_ transport.Driver    = tracedWire{}
)

// spanPath names a traced run's output files inside dir.
func spanPath(dir, workload string, seed int64, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.%s", workload, seed, ext))
}
