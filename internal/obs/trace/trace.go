// Package trace is the decode service's request-lifecycle flight
// recorder: per-request span records with one timestamp per pipeline
// stage (accept → coalesce → decode start/end → escalate start/end →
// response write), captured into fixed-size ring buffers that are cheap
// enough to leave on in production.
//
// The paper's central quantity is a latency budget — the decoder must
// answer inside the syndrome-generation window or backlog diverges —
// and a single end-to-end histogram (serve_decode_ns) cannot say
// *where* a blown budget went: queue wait, batch-coalesce wait, the
// mesh kernel, MWPM escalation, or the out-queue. A span decomposes
// each request's wall time into exactly those stages (the Durations
// table names them), and the recorder keeps the individual traces worth
// reading:
//
//   - a deterministic 1-in-N sample of all requests (N from the
//     server's TraceSample, default 16);
//   - every outlier — any request whose wall time lands within one
//     octave of the largest wall-time bucket seen so far, which always
//     includes the running maximum itself;
//   - every shed and escalation-drop decision, with the admission
//     controller inputs (EWMA arrival gap, modeled backlog ratio,
//     instantaneous queue length) that caused it. Decision capture is
//     always on and has its own ring, so a shedding storm cannot evict
//     the slow traces and vice versa.
//
// The hot path allocates nothing: spans are preallocated and recycled
// through a free list, committed records are value copies into
// preallocated rings, and every Span method is nil-receiver-safe so
// call sites need no "is tracing on" branches. When the free list is
// exhausted (more in-flight requests than MaxInFlight), Start returns
// nil and the request simply goes untraced — counted, never blocked.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Stage indexes one lifecycle timestamp of a span.
type Stage uint8

const (
	// StageAccept is stamped when the request enters submit(). The same
	// clock read prices admission and the sojourn bound, so the stages
	// up to the (d, e) queue take no time of their own.
	StageAccept Stage = iota
	// StageCoalesce is stamped when a drain worker pulls the request
	// into a batch; Coalesce − Accept is the queue wait, and includes
	// any scheduler deque wait, steal migration and park time of the
	// drain task itself.
	StageCoalesce
	// StageDecodeStart / StageDecodeEnd bracket the batch mesh decode.
	StageDecodeStart
	StageDecodeEnd
	// StageEscalateStart / StageEscalateEnd bracket the asynchronous
	// level-2 re-decode. They happen after the response is delivered
	// (level 2 never blocks level 1), so they are not part of the
	// request's wall time; EscalateStart − DecodeEnd is the escalation
	// queue wait.
	StageEscalateStart
	StageEscalateEnd
	// StageRespWrite is stamped when the response has been written to
	// the transport (or consumed by the synchronous Decode caller).
	// RespWrite − Accept is the span's wall time.
	StageRespWrite

	// NumStages is the stamp-array length.
	NumStages
)

var stageNames = [NumStages]string{
	"accept", "coalesce",
	"decode_start", "decode_end",
	"escalate_start", "escalate_end",
	"resp_write",
}

// String returns the stage's wire/JSON name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage" + strconv.Itoa(int(s))
}

// StageNames returns the names of all stages in stamp order.
func StageNames() []string { return append([]string(nil), stageNames[:]...) }

// Duration is one named stage duration of a record: To − From.
type Duration struct {
	Name     string
	From, To Stage
	// Wall marks the rows that telescope accept → resp_write. The
	// escalate rows happen after the response (level 2 is asynchronous),
	// so they are reported but are not part of the wall time.
	Wall bool
}

// NumDurations is the length of the Durations table.
const NumDurations = 6

// Durations is the stage model: every named duration a record
// decomposes into. /debug/traces, its readers and the finalize-time
// telescoping check all derive their rows from it.
var Durations = [NumDurations]Duration{
	{"queue_wait_ns", StageAccept, StageCoalesce, true},
	{"coalesce_ns", StageCoalesce, StageDecodeStart, true},
	{"decode_ns", StageDecodeStart, StageDecodeEnd, true},
	{"resp_write_ns", StageDecodeEnd, StageRespWrite, true},
	{"escalate_wait_ns", StageDecodeEnd, StageEscalateStart, false},
	{"escalate_ns", StageEscalateStart, StageEscalateEnd, false},
}

// StageDurations computes the Durations rows of one stamp array, in
// table order. A row whose stages were not both stamped, or were
// stamped out of order, reads −1.
func StageDurations(ts *[NumStages]int64) [NumDurations]int64 {
	var out [NumDurations]int64
	for i, d := range Durations {
		a, b := ts[d.From], ts[d.To]
		out[i] = -1
		if a != 0 && b != 0 && b >= a {
			out[i] = b - a
		}
	}
	return out
}

// telescopes reports whether the wall rows of ts sum to within 5% of
// wallNs.
func telescopes(ts *[NumStages]int64, wallNs int64) bool {
	sum := int64(0)
	for i, ns := range StageDurations(ts) {
		if Durations[i].Wall && ns > 0 {
			sum += ns
		}
	}
	diff := sum - wallNs
	if diff < 0 {
		diff = -diff
	}
	return float64(diff) <= 0.05*float64(wallNs)
}

// Kind classifies a record.
type Kind uint8

const (
	// KindRequest is a decoded (or errored-after-admission) request.
	KindRequest Kind = iota
	// KindShed is a request rejected by admission control or dropped
	// by the sojourn bound; the record carries the controller inputs
	// behind the decision.
	KindShed
	// KindEscDrop is an escalation dropped on a full level-2 queue.
	KindEscDrop
	// KindError is a request rejected before admission (bad distance,
	// bad syndrome length, draining server).
	KindError
)

var kindNames = [...]string{"request", "shed", "esc_drop", "error"}

// String returns the kind's JSON name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind" + strconv.Itoa(int(k))
}

// Reason says which mechanism produced a shed/drop decision.
type Reason uint8

const (
	ReasonNone Reason = iota
	// ReasonController: the backlog model predicted divergence (under
	// weighted admission, only request classes whose normalized service
	// cost falls under the overload cut shed for this reason).
	ReasonController
	// ReasonQueueFull: the (d, e) queue hit its hard depth bound.
	ReasonQueueFull
	// ReasonEscQueueFull: the level-2 escalation queue was full.
	ReasonEscQueueFull
	// ReasonSojourn: the request aged past the queue-sojourn bound while
	// the queue stayed backlogged, so the drain worker dropped it
	// (CoDel-style drop-oldest) instead of decoding it late.
	ReasonSojourn
)

var reasonNames = [...]string{"", "controller", "queue_full", "esc_queue_full", "sojourn"}

// String returns the reason's JSON name.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "reason" + strconv.Itoa(int(r))
}

// Span flags.
const (
	// FlagSampled: the span was selected by the 1-in-N sampler.
	FlagSampled uint32 = 1 << iota
	// FlagOutlier: wall time landed within one octave of the largest
	// wall-time bucket the recorder has seen.
	FlagOutlier
	// FlagEscalated: the decode was flagged for level-2 re-decode.
	FlagEscalated
	// FlagEscDropped: the level-2 queue was full; the escalation was
	// dropped (a KindEscDrop decision record was cut alongside).
	FlagEscDropped
	// FlagStolenDrain: the drain task that coalesced this request had
	// just been stolen by another scheduler worker.
	FlagStolenDrain
)

var flagNames = []struct {
	bit  uint32
	name string
}{
	{FlagSampled, "sampled"},
	{FlagOutlier, "outlier"},
	{FlagEscalated, "escalated"},
	{FlagEscDropped, "esc_dropped"},
	{FlagStolenDrain, "stolen_drain"},
}

// FlagNames expands a flag bitmask to its JSON names.
func FlagNames(flags uint32) []string {
	var out []string
	for _, f := range flagNames {
		if flags&f.bit != 0 {
			out = append(out, f.name)
		}
	}
	return out
}

// Span is one live request's trace: a preallocated, recycled record
// handle that travels with the request through the pipeline. Stages
// are stamped by whichever goroutine owns the request at that moment
// (reader, drain worker, escalation worker, connection writer); each
// stage is stamped at most once and the reference count released by
// Finish orders every stamp before finalization. All methods are safe
// on a nil receiver, so untraced requests cost one nil check per call.
type Span struct {
	rec *Recorder

	seq   uint64
	id    uint64
	d     int32
	etype uint8
	kind  Kind

	wallNs int64
	ts     [NumStages]int64 // unix nanos; 0 = stage not reached

	flags atomic.Uint32
	refs  atomic.Int32
}

// Seq returns the span's sequence number (0 for a nil span). Sequence
// numbers start at 1, so 0 is "no trace" everywhere, exemplars
// included.
func (sp *Span) Seq() uint64 {
	if sp == nil {
		return 0
	}
	return sp.seq
}

// Flags returns the current flag bitmask.
func (sp *Span) Flags() uint32 {
	if sp == nil {
		return 0
	}
	return sp.flags.Load()
}

// Stamp records time.Now for st.
func (sp *Span) Stamp(st Stage) {
	if sp == nil {
		return
	}
	sp.ts[st] = time.Now().UnixNano()
}

// StampAt records an already-read clock value for st, letting call
// sites share one clock read with their own bookkeeping or across
// every lane of a batch.
func (sp *Span) StampAt(st Stage, unixNs int64) {
	if sp == nil {
		return
	}
	sp.ts[st] = unixNs
}

// SetFlag sets the given flag bits.
func (sp *Span) SetFlag(f uint32) {
	if sp == nil {
		return
	}
	for {
		old := sp.flags.Load()
		if old&f == f || sp.flags.CompareAndSwap(old, old|f) {
			return
		}
	}
}

// AddRef adds one finalization reference. The span finalizes when
// every reference is released by Finish; the escalation path holds a
// second reference so a span is never recycled while level 2 still
// writes to it.
func (sp *Span) AddRef() {
	if sp == nil {
		return
	}
	sp.refs.Add(1)
}

// Finish releases one reference; the last release finalizes the span:
// wall time is computed, the keep decision is made, and the span
// returns to the free list.
func (sp *Span) Finish() {
	if sp == nil {
		return
	}
	if sp.refs.Add(-1) == 0 {
		sp.rec.finalize(sp)
	}
}

// DecisionInputs are the admission-side inputs behind one shed/drop
// decision, captured into its record so a scrape can say not just that
// a request was rejected but what the controller saw at that instant.
type DecisionInputs struct {
	// Ratio is the backlog model's processing ratio at decision time.
	Ratio float64
	// ArrivalNs is the EWMA inter-arrival estimate (ns).
	ArrivalNs float64
	// QueueLen is the instantaneous (d, e) queue length.
	QueueLen int
	// Weight is the request class's normalized service-cost weight in
	// (0, 1] under weighted admission (0 when weighting is off or the
	// decision predates any cost measurement).
	Weight float64
	// SojournNs is how long the request had been queued when a
	// drop-oldest decision evicted it (0 for admission-time sheds).
	SojournNs int64
}

// Release finalizes the span of a shed request without committing a
// record: the decision itself goes through Recorder.RecordDecision.
func (sp *Span) Release() {
	if sp == nil {
		return
	}
	sp.kind = KindShed
	sp.Finish()
}

// FinishError finalizes the span as a pre-admission error record (kept
// only when sampled).
func (sp *Span) FinishError() {
	if sp == nil {
		return
	}
	sp.kind = KindError
	sp.Finish()
}

// Record is one committed (immutable) flight-recorder entry: a plain
// value copy of a finalized span.
type Record struct {
	Seq   uint64 `json:"seq"`
	ID    uint64 `json:"id"`
	D     int32  `json:"d"`
	EType uint8  `json:"etype"`
	Kind  Kind   `json:"-"`
	Flags uint32 `json:"-"`

	Reason    Reason  `json:"-"`
	Ratio     float64 `json:"ratio,omitempty"`
	ArrivalNs float64 `json:"arrival_ns,omitempty"`
	QueueLen  int32   `json:"queue_len,omitempty"`
	Weight    float64 `json:"weight,omitempty"`
	SojournNs int64   `json:"sojourn_ns,omitempty"`

	WallNs int64            `json:"wall_ns"`
	TS     [NumStages]int64 `json:"-"`
}

// Config sizes a Recorder. Zero fields take defaults.
type Config struct {
	// Depth is the trace ring's capacity (default 256).
	Depth int
	// DecisionDepth is the shed/drop decision ring's capacity
	// (default 256).
	DecisionDepth int
	// MaxInFlight bounds concurrently live spans — the free-list size
	// (default 4096). Requests beyond it go untraced.
	MaxInFlight int
	// SampleN is the 1-in-N sampling period; N <= 0 means sample
	// nothing (outlier and decision capture still run). N == 1 traces
	// everything.
	SampleN int
}

// Counters are the recorder's own accounting, exposed by Snapshot.
type Counters struct {
	Started  uint64 `json:"started"`  // spans handed out
	Untraced uint64 `json:"untraced"` // Start calls refused (free list dry)
	Kept     uint64 `json:"kept"`     // request records committed to the ring
	Outliers uint64 `json:"outliers"` // kept because of the outlier rule
	// Telescoped counts the outliers whose wall-row durations sum to
	// within 5% of their wall time, checked as they finalize.
	Telescoped uint64 `json:"outliers_telescoped"`
	Decisions  uint64 `json:"decisions"` // shed/drop records committed
	Finalized  uint64 `json:"finalized"` // spans finalized (kept or not)
}

// Recorder is the flight recorder: a span free list, a trace ring and
// a decision ring. One Recorder serves one Server; all methods are
// safe for concurrent use.
type Recorder struct {
	sampleN uint64

	seq       atomic.Uint64
	tick      atomic.Uint64
	maxBucket atomic.Int64 // highest wall-time bucket index seen

	started, untraced, kept, outliers, telescoped, decisions, finalized atomic.Uint64

	mu   sync.Mutex
	free []*Span
	ring []Record
	rpos int // next write position
	rlen int // valid entries

	dmu   sync.Mutex
	dring []Record
	dpos  int
	dlen  int
}

// New builds a recorder. A nil *Recorder is a valid "tracing off"
// recorder: Start returns nil and RecordDecision is a no-op.
func New(cfg Config) *Recorder {
	if cfg.Depth <= 0 {
		cfg.Depth = 256
	}
	if cfg.DecisionDepth <= 0 {
		cfg.DecisionDepth = 256
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4096
	}
	r := &Recorder{
		ring:  make([]Record, cfg.Depth),
		dring: make([]Record, cfg.DecisionDepth),
		free:  make([]*Span, cfg.MaxInFlight),
	}
	if cfg.SampleN > 0 {
		r.sampleN = uint64(cfg.SampleN)
	}
	r.maxBucket.Store(-1)
	spans := make([]Span, cfg.MaxInFlight)
	for i := range spans {
		spans[i].rec = r
		r.free[i] = &spans[i]
	}
	return r
}

// SampleN returns the sampling period (0 = sampling off).
func (r *Recorder) SampleN() int {
	if r == nil {
		return 0
	}
	return int(r.sampleN)
}

// Start claims a span for one request. It returns nil — meaning the
// request goes untraced — when the recorder is nil or every span is in
// flight. The span arrives with one finalization reference held.
func (r *Recorder) Start(id uint64, d int, etype uint8) *Span {
	if r == nil {
		return nil
	}
	r.started.Add(1)
	r.mu.Lock()
	n := len(r.free)
	if n == 0 {
		r.mu.Unlock()
		r.untraced.Add(1)
		return nil
	}
	sp := r.free[n-1]
	r.free[n-1] = nil
	r.free = r.free[:n-1]
	r.mu.Unlock()

	sp.ts = [NumStages]int64{}
	sp.seq = r.seq.Add(1)
	sp.id, sp.d, sp.etype = id, int32(d), uint8(etype)
	sp.kind = KindRequest
	sp.wallNs = 0
	sp.flags.Store(0)
	sp.refs.Store(1)
	if r.sampleN > 0 && r.tick.Add(1)%r.sampleN == 0 {
		sp.flags.Store(FlagSampled)
	}
	return sp
}

// RecordDecision commits a shed/drop decision record. Every decision
// takes this path, whether or not the request carries a span.
func (r *Recorder) RecordDecision(kind Kind, id uint64, d int, etype uint8,
	reason Reason, in DecisionInputs) {
	if r == nil {
		return
	}
	rec := Record{
		Seq: r.seq.Add(1), ID: id, D: int32(d), EType: etype,
		Kind: kind, Reason: reason,
		Ratio: in.Ratio, ArrivalNs: in.ArrivalNs, QueueLen: int32(in.QueueLen),
		Weight: in.Weight, SojournNs: in.SojournNs,
	}
	r.commitDecision(&rec)
}

// finalize runs when a span's last reference is released.
func (r *Recorder) finalize(sp *Span) {
	r.finalized.Add(1)
	// Wall time: response write minus accept; fall back to the latest
	// stamp for spans that never reached the writer (errors).
	if acc := sp.ts[StageAccept]; acc != 0 {
		end := sp.ts[StageRespWrite]
		if end == 0 {
			for st := NumStages - 1; st > StageAccept; st-- {
				if sp.ts[st] != 0 {
					end = sp.ts[st]
					break
				}
			}
		}
		if end >= acc {
			sp.wallNs = end - acc
		}
	}
	// A shed span commits nothing: its decision record is already in
	// the decision ring.
	if sp.kind != KindShed {
		keep := sp.flags.Load()&FlagSampled != 0
		if sp.kind == KindRequest && sp.wallNs > 0 {
			// Outlier rule: within one octave of the largest wall-time
			// bucket seen so far. The running maximum itself always
			// qualifies, so the worst request on record is always kept.
			b := int64(obs.BucketIndex(uint64(sp.wallNs)))
			max := r.maxBucket.Load()
			for b > max && !r.maxBucket.CompareAndSwap(max, b) {
				max = r.maxBucket.Load()
			}
			if max < b {
				max = b
			}
			if b+obs.BucketsPerOctave > max {
				sp.SetFlag(FlagOutlier)
				r.outliers.Add(1)
				if telescopes(&sp.ts, sp.wallNs) {
					r.telescoped.Add(1)
				}
				keep = true
			}
		}
		if keep {
			rec := spanRecord(sp)
			r.commit(&rec)
		}
	}

	r.mu.Lock()
	r.free = append(r.free, sp)
	r.mu.Unlock()
}

// spanRecord copies a finalized span into a plain Record.
func spanRecord(sp *Span) Record {
	return Record{
		Seq: sp.seq, ID: sp.id, D: sp.d, EType: sp.etype,
		Kind: sp.kind, Flags: sp.flags.Load(),
		WallNs: sp.wallNs, TS: sp.ts,
	}
}

func (r *Recorder) commit(rec *Record) {
	r.kept.Add(1)
	r.mu.Lock()
	r.ring[r.rpos] = *rec
	r.rpos = (r.rpos + 1) % len(r.ring)
	if r.rlen < len(r.ring) {
		r.rlen++
	}
	r.mu.Unlock()
}

func (r *Recorder) commitDecision(rec *Record) {
	r.decisions.Add(1)
	r.dmu.Lock()
	r.dring[r.dpos] = *rec
	r.dpos = (r.dpos + 1) % len(r.dring)
	if r.dlen < len(r.dring) {
		r.dlen++
	}
	r.dmu.Unlock()
}

// Snapshot is a point-in-time copy of the recorder's state.
type Snapshot struct {
	SampleN  int      `json:"sample_n"`
	Counters Counters `json:"counters"`
	// Traces are the committed request records, newest first.
	Traces []Record `json:"traces"`
	// Decisions are the committed shed/drop records, newest first.
	Decisions []Record `json:"decisions"`
}

// Snapshot copies both rings, newest first.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		SampleN: int(r.sampleN),
		Counters: Counters{
			Started:    r.started.Load(),
			Untraced:   r.untraced.Load(),
			Kept:       r.kept.Load(),
			Outliers:   r.outliers.Load(),
			Telescoped: r.telescoped.Load(),
			Decisions:  r.decisions.Load(),
			Finalized:  r.finalized.Load(),
		},
	}
	r.mu.Lock()
	s.Traces = copyRing(r.ring, r.rpos, r.rlen)
	r.mu.Unlock()
	r.dmu.Lock()
	s.Decisions = copyRing(r.dring, r.dpos, r.dlen)
	r.dmu.Unlock()
	return s
}

// copyRing extracts a ring's valid entries newest-first.
func copyRing(ring []Record, pos, n int) []Record {
	out := make([]Record, n)
	for i := 0; i < n; i++ {
		out[i] = ring[(pos-1-i+len(ring))%len(ring)]
	}
	return out
}

// Resolve returns the committed request record with the given sequence
// number, if it is still in the ring — the exemplar → trace link.
func (s *Snapshot) Resolve(seq uint64) *Record {
	for i := range s.Traces {
		if s.Traces[i].Seq == seq {
			return &s.Traces[i]
		}
	}
	return nil
}
