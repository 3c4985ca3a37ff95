package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Phase names one span of a request's lifecycle. A traced request
// emits, in order:
//
//	submit                   arrival at the device
//	queue                    wait in the dispatch queue (T = submit
//	                         time, DurMs = wait until dispatch)
//	overhead                 controller command overhead
//	seek | rotate | transfer the mechanical service phases
//	complete                 DurMs = the request's full response time
//
// Cache-served requests emit submit, cache_hit and complete only. The
// invariant the schema guarantees for a media-served request is
//
//	queue + overhead + seek + rotate + transfer = complete.DurMs
//
// so a JSONL trace reconstructs every request's time decomposition
// exactly.
type Phase string

// The request-lifecycle phases.
const (
	PhaseSubmit   Phase = "submit"
	PhaseCacheHit Phase = "cache_hit"
	PhaseQueue    Phase = "queue"
	PhaseOverhead Phase = "overhead"
	PhaseSeek     Phase = "seek"
	PhaseRotate   Phase = "rotate"
	PhaseTransfer Phase = "transfer"
	PhaseComplete Phase = "complete"

	// PhaseFault and PhaseReact are out-of-band spans: an injected
	// hardware fault (a grown media error, an attribute-drift onset, an
	// arm or member failure) and the degradation reaction it provoked (a
	// SMART-driven deconfiguration, a completed rebuild). They belong to
	// no I/O request; Lifecycles skips them, so a trace interleaves
	// cause (fault) and effect (react) with the request spans they
	// perturb.
	PhaseFault Phase = "fault"
	PhaseReact Phase = "react"
)

// Event is one span of a request's lifecycle. TMs is the span's start
// in simulated milliseconds; DurMs its length. Req identifies the
// request uniquely per emitting device; Arm is the servicing actuator
// (-1 when no actuator is involved). LBA/Sectors/Read are populated on
// submit events only.
type Event struct {
	TMs     float64 `json:"t"`
	Dev     string  `json:"dev"`
	Req     uint64  `json:"req"`
	Phase   Phase   `json:"phase"`
	Arm     int     `json:"arm"`
	DurMs   float64 `json:"dur_ms"`
	LBA     int64   `json:"lba,omitempty"`
	Sectors int     `json:"sectors,omitempty"`
	Read    bool    `json:"read,omitempty"`
}

// Sink receives span events. Implementations must not reorder events;
// they are emitted in simulation order and that order is deterministic.
type Sink interface {
	Emit(ev Event)
}

// Options is the observability hookup a device constructor accepts:
// the span sink (nil disables tracing at zero cost) and the device
// label stamped on events and snapshots (empty selects the device's
// default, typically its model name).
type Options struct {
	Sink Sink
	Name string
}

// Label resolves the device label against its default.
func (o Options) Label(fallback string) string {
	if o.Name != "" {
		return o.Name
	}
	return fallback
}

// Clock is the simulated-time source an Emitter stamps events with;
// simkit.Engine satisfies it.
type Clock interface {
	Now() float64
}

// Emitter stamps span events with a device label and the simulation
// clock and hands them to a sink. A nil *Emitter is the disabled
// tracer: every method is a no-op, so instrumented components hold one
// pointer and never branch on configuration.
type Emitter struct {
	clock Clock
	sink  Sink
	dev   string
	seq   uint64
}

// NewEmitter builds an emitter for the device label. It returns nil —
// the disabled tracer — when sink is nil.
func NewEmitter(clock Clock, sink Sink, dev string) *Emitter {
	if sink == nil {
		return nil
	}
	if clock == nil {
		panic("obs: emitter needs a clock")
	}
	return &Emitter{clock: clock, sink: sink, dev: dev}
}

// NextReq allocates the next request id (0 on the disabled tracer).
func (e *Emitter) NextReq() uint64 {
	if e == nil {
		return 0
	}
	e.seq++
	return e.seq
}

// Submit emits the request's arrival span.
func (e *Emitter) Submit(req uint64, lba int64, sectors int, read bool) {
	if e == nil {
		return
	}
	e.sink.Emit(Event{
		TMs: e.clock.Now(), Dev: e.dev, Req: req, Phase: PhaseSubmit,
		Arm: -1, LBA: lba, Sectors: sectors, Read: read,
	})
}

// Span emits one lifecycle span starting at tMs.
func (e *Emitter) Span(req uint64, ph Phase, arm int, tMs, durMs float64) {
	if e == nil {
		return
	}
	e.sink.Emit(Event{TMs: tMs, Dev: e.dev, Req: req, Phase: ph, Arm: arm, DurMs: durMs})
}

// Service emits the dispatch-time span sequence of one media access:
// queue wait (from submitMs), controller overhead, seek, rotate and
// transfer, attributed to the servicing arm.
func (e *Emitter) Service(req uint64, arm int, submitMs, overheadMs, seekMs, rotMs, xferMs float64) {
	if e == nil {
		return
	}
	now := e.clock.Now()
	e.Span(req, PhaseQueue, -1, submitMs, now-submitMs)
	t := now
	e.Span(req, PhaseOverhead, arm, t, overheadMs)
	t += overheadMs
	e.Span(req, PhaseSeek, arm, t, seekMs)
	t += seekMs
	e.Span(req, PhaseRotate, arm, t, rotMs)
	t += rotMs
	e.Span(req, PhaseTransfer, arm, t, xferMs)
}

// Complete emits the request's completion span at the current time;
// its duration is the full response time measured from submitMs.
func (e *Emitter) Complete(req uint64, arm int, submitMs float64) {
	if e == nil {
		return
	}
	now := e.clock.Now()
	e.Span(req, PhaseComplete, arm, now, now-submitMs)
}

// CacheHit emits the buffer-service span at the current (completion)
// time, durMs long.
func (e *Emitter) CacheHit(req uint64, durMs float64) {
	if e == nil {
		return
	}
	e.Span(req, PhaseCacheHit, -1, e.clock.Now()-durMs, durMs)
}

// Fault emits an out-of-band fault-injection (PhaseFault) or
// degradation-reaction (PhaseReact) span at the current time. Each call
// allocates its own request id — the span belongs to no I/O request.
// Arm carries the affected component (-1 when none); LBA and Sectors
// describe the affected media range when the fault has one.
func (e *Emitter) Fault(ph Phase, arm int, lba int64, sectors int) {
	if e == nil {
		return
	}
	e.sink.Emit(Event{
		TMs: e.clock.Now(), Dev: e.dev, Req: e.NextReq(), Phase: ph,
		Arm: arm, LBA: lba, Sectors: sectors,
	})
}

// JSONLSink writes each event as one JSON line. Field order follows the
// Event struct, so output is byte-deterministic for a deterministic
// simulation. Write errors are sticky and reported by Err.
type JSONLSink struct {
	enc *json.Encoder
	err error
}

// NewJSONLSink builds a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit writes one event line.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(ev)
}

// Err reports the first write error, if any.
func (s *JSONLSink) Err() error { return s.err }

// MemorySink buffers events in memory — the aggregator fleet jobs use
// so per-job traces can be written out in submission order. The zero
// value is ready to use.
type MemorySink struct {
	evs []Event
}

// Emit appends the event.
func (s *MemorySink) Emit(ev Event) { s.evs = append(s.evs, ev) }

// Events returns the buffered events in emission order.
func (s *MemorySink) Events() []Event { return s.evs }

// WriteJSONL writes the buffered events as JSON lines.
func (s *MemorySink) WriteJSONL(w io.Writer) error {
	sink := NewJSONLSink(w)
	for _, ev := range s.evs {
		sink.Emit(ev)
	}
	return sink.Err()
}

// WriteJSONL writes a batch of events as JSON lines.
func WriteJSONL(w io.Writer, evs []Event) error {
	sink := NewJSONLSink(w)
	for _, ev := range evs {
		sink.Emit(ev)
	}
	return sink.Err()
}

// Lifecycle is one request's reconstructed time decomposition.
type Lifecycle struct {
	Dev        string
	Req        uint64
	Arm        int // servicing arm of the last mechanical phase, -1 if none
	SubmitMs   float64
	CompleteMs float64
	ResponseMs float64 // complete span duration
	QueueMs    float64
	OverheadMs float64
	SeekMs     float64
	RotateMs   float64
	TransferMs float64
	CacheHitMs float64
	CacheHit   bool
	Complete   bool
}

// PhaseSumMs sums the reconstructed phases; for a completed request it
// equals ResponseMs up to floating-point association (fragmented
// defect-remapped requests, whose extents each pay their own
// positioning, are the documented exception).
func (lc Lifecycle) PhaseSumMs() float64 {
	return lc.QueueMs + lc.OverheadMs + lc.SeekMs + lc.RotateMs + lc.TransferMs + lc.CacheHitMs
}

// Lifecycles reconstructs per-request decompositions from a span
// stream, grouping by (device, request id), in first-appearance order.
// Fault and react spans, which belong to no request, are skipped.
func Lifecycles(evs []Event) []Lifecycle {
	type key struct {
		dev string
		req uint64
	}
	index := map[key]int{}
	var out []Lifecycle
	for _, ev := range evs {
		if ev.Phase == PhaseFault || ev.Phase == PhaseReact {
			continue
		}
		k := key{ev.Dev, ev.Req}
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, Lifecycle{Dev: ev.Dev, Req: ev.Req, Arm: -1})
		}
		lc := &out[i]
		switch ev.Phase {
		case PhaseSubmit:
			lc.SubmitMs = ev.TMs
		case PhaseQueue:
			lc.QueueMs += ev.DurMs
		case PhaseOverhead:
			lc.OverheadMs += ev.DurMs
		case PhaseSeek:
			lc.SeekMs += ev.DurMs
			lc.Arm = ev.Arm
		case PhaseRotate:
			lc.RotateMs += ev.DurMs
		case PhaseTransfer:
			lc.TransferMs += ev.DurMs
		case PhaseCacheHit:
			lc.CacheHitMs += ev.DurMs
			lc.CacheHit = true
		case PhaseComplete:
			lc.CompleteMs = ev.TMs
			lc.ResponseMs = ev.DurMs
			lc.Complete = true
		default:
			panic(fmt.Sprintf("obs: unknown phase %q", ev.Phase))
		}
	}
	return out
}
