package serve

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder/mwpm"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/twolevel"
)

// Config parameterizes a Server. The zero value of every field has a
// usable default.
type Config struct {
	// Variant is the mesh design decoding requests. The zero value is
	// sfq.Baseline — callers wanting the paper's complete design pass
	// sfq.Final explicitly (cmd/serve does).
	Variant sfq.Variant
	// Distances are the code distances the server accepts (default
	// {3, 5, 7, 9}). Each distance gets one queue per error type.
	Distances []int
	// Workers bounds how many drain tasks one (distance, error type)
	// queue runs concurrently (default 1). Each drain slot owns one
	// batch mesh. The slots of every queue share one work-stealing
	// scheduler pool (see PoolWorkers), so the bound is a per-queue
	// fairness cap, not a thread count.
	Workers int
	// PoolWorkers sizes the shared work-stealing scheduler pool that
	// executes every queue's drain tasks (default GOMAXPROCS). One pool
	// serves all (distance, error type) queues, so mixed-distance
	// traffic saturates the machine without per-queue idle threads.
	PoolWorkers int
	// Lanes fixes each worker's batch-mesh lane width. 0 (the default)
	// draws maximum-width meshes from the pool; an explicit width builds
	// private meshes, trading peak throughput for batch latency.
	Lanes int
	// QueueDepth is each (d, e) queue's capacity (default 64). A full
	// queue sheds — the hard backpressure bound behind the model-driven
	// controller.
	QueueDepth int
	// Window is the per-connection in-flight request cap (default 32).
	// A connection at its window stops being read, pushing backpressure
	// into the client's TCP send buffer.
	Window int
	// EvalEvery is the controller's re-evaluation period (default 50ms).
	EvalEvery time.Duration
	// Pool supplies decoder meshes (default: a fresh pool for Variant).
	// Sharing a pool across servers shares its accounting.
	Pool *sfq.Pool
	// Registry receives the serve_* metrics (default obs.Default()).
	// Tests pass a private registry to keep controller inputs isolated.
	Registry *obs.Registry
	// Escalate enables two-level decoding: every response still carries
	// the level-1 mesh correction at mesh latency, but requests whose
	// mesh statistics trip the escalation policy are flagged
	// (FlagEscalated) and re-decoded by exact MWPM on a bounded
	// asynchronous queue — level-2 work never blocks the level-1 path.
	// The level-2 latency feeds serve_escalate_ns, and the controller's
	// service-time signal becomes the two-tier mixture, so escalation
	// storms engage shedding like any other backlog source.
	Escalate bool
	// EscalatePolicy overrides the escalation trigger (default
	// twolevel.DefaultPolicy()). Ignored unless Escalate is set.
	EscalatePolicy *twolevel.Policy
	// EscQueueDepth bounds the escalation queue (default 256). When the
	// queue is full, escalations are dropped — counted in
	// serve_escalate_dropped_total — rather than backpressuring decode.
	EscQueueDepth int
	// EscWorkers is the level-2 worker count (default 1).
	EscWorkers int
	// TraceSample controls the request-lifecycle flight recorder
	// (internal/obs/trace): 0 (the default) records 1 in 16 requests, a
	// positive N records 1 in N (outliers and shed/drop decisions are
	// always recorded), and a negative value disables the recorder
	// entirely, including outlier and shed-decision capture.
	TraceSample int
	// TraceDepth sizes the flight recorder's trace and decision rings
	// (default 256 each).
	TraceDepth int
	// MaxQueueWait, when positive, is the CoDel-style sojourn bound on
	// the decode queues: a drain that pops a request older than the
	// bound while more work is still queued behind it drops the request
	// (StatusShed, ReasonSojourn) instead of decoding it. Under
	// sustained backlog this bounds the queue-wait tail near the bound
	// itself, where plain FIFO ages every request to QueueDepth × the
	// service time. The zero value disables the policy — a lightly
	// loaded or conformance-tested server never drops — and the pop-time
	// backlog check (len(q.ch) > 0) means the last queued request is
	// always decoded, however stale, so an idle service still answers.
	MaxQueueWait time.Duration
}

// task is one admitted request in a decode queue. deliver is invoked
// exactly once, from the decode worker, with a response the receiver
// owns.
type task struct {
	id      uint64
	syn     []bool
	deliver func(*Response)
	sp      *trace.Span // nil when the request is untraced
	enqNs   int64       // accept wall clock: queue wait and sojourn bound
}

// escTask is one queued level-2 re-decode. It owns syn: the level-1
// response was already delivered when the task was enqueued, so nothing
// else references the syndrome copy. q is the queue whose free list the
// syndrome buffer returns to when level 2 finishes.
type escTask struct {
	g   *lattice.Graph
	q   *queue
	syn []bool
	sp  *trace.Span // holds one span reference until level 2 finishes
	// endNs is the level-1 decode end, from which the escalation queue
	// wait runs.
	endNs int64
}

type queueKey struct {
	d int
	e lattice.ErrorType
}

type queue struct {
	d  int
	e  lattice.ErrorType
	ch chan task

	// costNs is the per-distance decode-cost histogram
	// (serve_decode_ns_d{d}) feeding the queue's admission weight. Both
	// error-type queues of one distance share the registry histogram.
	costNs *obs.Histogram
	// weightBits is the queue's current service-cost weight — its mean
	// decode time normalized by the most expensive distance's, in
	// math.Float64bits — written by updateWeights, read lock-free on
	// every shed check. Starts at 1.0: unknown cost reads as expensive.
	weightBits atomic.Uint64

	// synMu guards synFree, the queue's syndrome-buffer free list. Every
	// buffer has exactly len == the distance's check count, so a reused
	// buffer is always the right size. The list is bounded at the
	// queue's depth (more buffers in flight than queue slots means the
	// extras are escalation-held; letting them die to GC bounds memory).
	synMu   sync.Mutex
	synFree [][]bool

	// Drain bookkeeping: up to Config.Workers drain tasks run at once
	// per queue, spawned on demand by kick and retired by the
	// exit-recheck protocol in drainTask.Run. active counts running
	// drains; free holds the idle preallocated drain slots (each owns a
	// mesh and scratch); cond wakes Close when active reaches zero.
	mu     sync.Mutex
	cond   *sync.Cond
	active int
	free   []*drainTask
	drains []*drainTask // all slots, for mesh return on Close
}

// weight returns the queue's current normalized service-cost weight.
func (q *queue) weight() float64 { return math.Float64frombits(q.weightBits.Load()) }

func (q *queue) setWeight(w float64) { q.weightBits.Store(math.Float64bits(w)) }

// getSyn pops a syndrome buffer of length n from the queue's free list,
// allocating only when the list is dry (cold start, or buffers held by
// in-flight escalations).
func (q *queue) getSyn(n int) []bool {
	q.synMu.Lock()
	if last := len(q.synFree) - 1; last >= 0 {
		buf := q.synFree[last]
		q.synFree = q.synFree[:last]
		q.synMu.Unlock()
		return buf
	}
	q.synMu.Unlock()
	return make([]bool, n)
}

// putSyn returns a syndrome buffer to the free list once nothing
// references it (decoded without escalation, shed after copy, or the
// level-2 worker finished with it).
func (q *queue) putSyn(buf []bool) {
	if buf == nil {
		return
	}
	q.synMu.Lock()
	if len(q.synFree) < cap(q.ch) {
		q.synFree = append(q.synFree, buf)
	}
	q.synMu.Unlock()
}

// drainTask is one preallocated drain slot of a queue: a sched.Task
// that coalesces queued requests into batch-mesh lanes until the queue
// is empty, then parks itself back on the queue's free list. The slot
// owns its mesh, scratch and coalescing buffers, so a drain allocates
// nothing per batch.
type drainTask struct {
	s      *Server
	q      *queue
	g      *lattice.Graph
	b      *sfq.BatchMesh
	pooled bool // mesh came from the shared pool (return on Close)
	scr    *decodepool.Scratch
	tasks  []task
	syns   [][]bool
	stolen bool // set by ObserveSchedWait just before Run
}

// Server is the decode service: admission control in front of
// per-(distance, error type) queues, drained by workers that coalesce
// queued requests into SWAR batch-mesh lanes. Create with New, attach
// transports with Serve (framed TCP) and Handler (HTTP), stop with
// Close.
type Server struct {
	cfg   Config
	pool  *sfq.Pool
	reg   *obs.Registry
	sched *sched.Pool

	queues map[queueKey]*queue
	ctl    *Controller
	meter  arrivalMeter

	// minWeightBits is the smallest queue weight, maintained by
	// updateWeights alongside the per-queue weights, read lock-free by
	// the shed predicate.
	minWeightBits atomic.Uint64

	// Response free list: the steady-state serve path recycles Response
	// objects (and their Qubits capacity) instead of allocating one per
	// request. Explicit and mutex-guarded rather than sync.Pool so a GC
	// cycle cannot empty it mid-flight — the AllocsPerRun-0 gate depends
	// on steady state meaning *zero*, not "zero between collections".
	respMu   sync.Mutex
	respFree []*Response

	escPol twolevel.Policy
	escCh  chan escTask
	escWG  sync.WaitGroup

	tracer      *trace.Recorder
	queueWaitNs *obs.Histogram // accept → coalesce, sched wait included
	coalesceNs  *obs.Histogram // coalesce → decode start
	escWaitNs   *obs.Histogram // decode end → escalate start
	schedWaitNs *obs.Histogram // drain-task deque wait, per dispatch
	drainSteals *obs.Counter
	escDepth    *obs.Gauge

	decodeNs   *obs.Histogram
	batchLanes *obs.Histogram
	escalateNs *obs.Histogram
	escTotal   *obs.Counter
	escDropped *obs.Counter

	reqTotal    *obs.Counter
	okTotal     *obs.Counter
	shedTotal   *obs.Counter
	errTotal    *obs.Counter
	sojournDrop *obs.Counter
	shedGauge   *obs.Gauge
	ratioPpm    *obs.Gauge
	connGauge   *obs.Gauge
	outDepth    *obs.Gauge

	mu        sync.RWMutex
	closed    bool
	listeners []net.Listener
	conns     map[*srvConn]struct{}

	connWG     sync.WaitGroup
	tickerStop chan struct{}
	tickerDone chan struct{}
}

// New builds and starts a server: its decode workers and controller
// loop run until Close.
func New(cfg Config) *Server {
	if len(cfg.Distances) == 0 {
		cfg.Distances = []int{3, 5, 7, 9}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	if cfg.EvalEvery <= 0 {
		cfg.EvalEvery = 50 * time.Millisecond
	}
	if cfg.PoolWorkers <= 0 {
		cfg.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.Pool == nil {
		cfg.Pool = sfq.NewPool(cfg.Variant)
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	s := &Server{
		cfg:         cfg,
		pool:        cfg.Pool,
		reg:         cfg.Registry,
		queues:      map[queueKey]*queue{},
		conns:       map[*srvConn]struct{}{},
		sched:       sched.New(cfg.PoolWorkers, sched.Options{}),
		decodeNs:    cfg.Registry.Histogram("serve_decode_ns"),
		batchLanes:  cfg.Registry.Histogram("serve_batch_lanes"),
		reqTotal:    cfg.Registry.Counter("serve_requests_total"),
		okTotal:     cfg.Registry.Counter("serve_ok_total"),
		shedTotal:   cfg.Registry.Counter("serve_shed_total"),
		errTotal:    cfg.Registry.Counter("serve_error_total"),
		sojournDrop: cfg.Registry.Counter("serve_sojourn_dropped_total"),
		shedGauge:   cfg.Registry.Gauge("serve_shedding"),
		queueWaitNs: cfg.Registry.Histogram("serve_queue_wait_ns"),
		coalesceNs:  cfg.Registry.Histogram("serve_coalesce_ns"),
		escWaitNs:   cfg.Registry.Histogram("serve_escalate_wait_ns"),
		schedWaitNs: cfg.Registry.Histogram("serve_sched_wait_ns"),
		drainSteals: cfg.Registry.Counter("serve_drain_steals_total"),
		ratioPpm:    cfg.Registry.Gauge("serve_backlog_ratio_ppm"),
		connGauge:   cfg.Registry.Gauge("serve_conns"),
		outDepth:    cfg.Registry.Gauge("serve_out_queue_depth"),
		tickerStop:  make(chan struct{}),
		tickerDone:  make(chan struct{}),
	}
	s.minWeightBits.Store(math.Float64bits(1.0))
	sampleN := cfg.TraceSample
	if sampleN == 0 {
		sampleN = 16
	}
	if sampleN > 0 {
		s.tracer = trace.New(trace.Config{
			Depth:         cfg.TraceDepth,
			DecisionDepth: cfg.TraceDepth,
			SampleN:       sampleN,
		})
		// Exemplars link high serve_decode_ns buckets to trace seqs.
		s.decodeNs.EnableExemplars()
	}
	// Controller capacity: how many decodes the whole service advances
	// concurrently when saturated — lanes × workers, summed over queues.
	capacity := 0.0
	for _, d := range cfg.Distances {
		lanes := cfg.Lanes
		if max := sfq.MaxBatchLanes(d); lanes < 1 || lanes > max {
			lanes = max
		}
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			q := &queue{d: d, e: e, ch: make(chan task, cfg.QueueDepth),
				costNs: cfg.Registry.Histogram(fmt.Sprintf("serve_decode_ns_d%d", d))}
			q.setWeight(1.0)
			q.cond = sync.NewCond(&q.mu)
			s.queues[queueKey{d, e}] = q
			g := s.pool.Graph(d, e)
			for w := 0; w < cfg.Workers; w++ {
				dt := &drainTask{s: s, q: q, g: g, scr: decodepool.NewScratch()}
				if cfg.Lanes > 0 {
					dt.b = sfq.NewBatchWithLanes(g, cfg.Variant, cfg.Lanes)
				} else {
					dt.b = s.pool.GetBatch(d, e)
					dt.pooled = true
				}
				dt.tasks = make([]task, 0, dt.b.Lanes())
				dt.syns = make([][]bool, 0, dt.b.Lanes())
				q.drains = append(q.drains, dt)
				q.free = append(q.free, dt)
			}
			capacity += float64(lanes * cfg.Workers)
		}
	}
	if cfg.Escalate {
		s.escPol = twolevel.DefaultPolicy()
		if cfg.EscalatePolicy != nil {
			s.escPol = *cfg.EscalatePolicy
		}
		depth := cfg.EscQueueDepth
		if depth <= 0 {
			depth = 256
		}
		workers := cfg.EscWorkers
		if workers <= 0 {
			workers = 1
		}
		s.escCh = make(chan escTask, depth)
		s.escalateNs = cfg.Registry.Histogram("serve_escalate_ns")
		s.escTotal = cfg.Registry.Counter("serve_escalations_total")
		s.escDropped = cfg.Registry.Counter("serve_escalate_dropped_total")
		s.escDepth = cfg.Registry.Gauge("serve_esc_queue_depth")
		for w := 0; w < workers; w++ {
			s.escWG.Add(1)
			go s.runEscWorker()
		}
	}
	s.ctl = NewController(capacity)
	go s.controlLoop()
	return s
}

// Controller returns the server's admission controller (read-only use:
// Shedding, Ratio).
func (s *Server) Controller() *Controller { return s.ctl }

// Pool returns the mesh pool backing the decode workers.
func (s *Server) Pool() *sfq.Pool { return s.pool }

// Tracer returns the server's flight recorder, nil when tracing is
// disabled. The /debug/traces handler and the scrape tests read it.
func (s *Server) Tracer() *trace.Recorder { return s.tracer }

// recordShed commits one shed decision with the admission-controller
// inputs that caused it, and releases the request's span (nil when
// untraced) without a trace record. weight is the shed class's
// service-cost weight; sojournNs is nonzero only for ReasonSojourn
// drops (how long the request actually waited).
func (s *Server) recordShed(sp *trace.Span, id uint64, d int, e lattice.ErrorType,
	reason trace.Reason, queueLen int, weight float64, sojournNs int64) {
	sp.Release()
	if s.tracer == nil {
		return
	}
	s.tracer.RecordDecision(trace.KindShed, id, d, uint8(e), reason, trace.DecisionInputs{
		Ratio:     s.ctl.Ratio(),
		ArrivalNs: s.meter.intervalNs(time.Now()),
		QueueLen:  queueLen,
		Weight:    weight,
		SojournNs: sojournNs,
	})
}

// recordEscDrop commits an escalation-drop decision. The level-2 queue
// was full, so its length is its capacity by definition of the drop.
func (s *Server) recordEscDrop(id uint64, q *queue) {
	if s.tracer == nil {
		return
	}
	s.tracer.RecordDecision(trace.KindEscDrop, id, q.d, uint8(q.e),
		trace.ReasonEscQueueFull, trace.DecisionInputs{
			Ratio:     s.ctl.Ratio(),
			ArrivalNs: s.meter.intervalNs(time.Now()),
			QueueLen:  cap(s.escCh),
			Weight:    q.weight(),
		})
}

// respFreeCap bounds the response free list; responses beyond it (a
// burst drained all at once) fall to the garbage collector.
const respFreeCap = 1024

// getResp pops a recycled Response — zeroed except for its retained
// Qubits capacity — or allocates one when the list is dry.
func (s *Server) getResp() *Response {
	s.respMu.Lock()
	if last := len(s.respFree) - 1; last >= 0 {
		r := s.respFree[last]
		s.respFree[last] = nil
		s.respFree = s.respFree[:last]
		s.respMu.Unlock()
		return r
	}
	s.respMu.Unlock()
	return &Response{}
}

// putResp recycles a delivered Response after the transport encoded it
// onto the wire. The caller must not touch r afterwards.
func (s *Server) putResp(r *Response) {
	if r == nil {
		return
	}
	*r = Response{Qubits: r.Qubits[:0]}
	s.respMu.Lock()
	if len(s.respFree) < respFreeCap {
		s.respFree = append(s.respFree, r)
	}
	s.respMu.Unlock()
}

// controlLoop re-evaluates the SLO controller on a fixed period, from
// the live arrival-rate estimate and service-time histogram, and
// mirrors its state into the serve_shedding / serve_backlog_ratio_ppm
// gauges.
func (s *Server) controlLoop() {
	defer close(s.tickerDone)
	t := time.NewTicker(s.cfg.EvalEvery)
	defer t.Stop()
	for {
		select {
		case <-s.tickerStop:
			return
		case now := <-t.C:
			// With escalation on, the controller sees the two-tier
			// service-time mixture: level-1 mesh decodes plus level-2
			// MWPM re-decodes in one distribution, so an escalation storm
			// inflates the modeled backlog and engages shedding.
			svc := s.decodeNs.Snapshot()
			if s.escCh != nil {
				svc = svc.Merge(s.escalateNs.Snapshot())
			}
			shedding := s.ctl.Update(s.meter.intervalNs(now), svc)
			if shedding {
				s.shedGauge.Set(1)
			} else {
				s.shedGauge.Set(0)
			}
			s.ratioPpm.Set(int64(s.ctl.Ratio() * 1e6))
			s.updateWeights()
		}
	}
}

// updateWeights refreshes every queue's service-cost weight from the
// measured per-distance decode histograms: weight = that distance's
// mean decode time / the most expensive distance's, so the costliest
// class sits at 1.0 and cheap classes fall toward 0. A distance with no
// measurements yet keeps weight 1.0 — unknown cost reads as expensive,
// so a cold class is never shed preferentially on no evidence. The
// minimum across queues feeds ShedClass's "cheapest class" rule.
func (s *Server) updateWeights() {
	maxMean := 0.0
	means := map[int]float64{}
	for _, q := range s.queues {
		if _, ok := means[q.d]; ok {
			continue
		}
		snap := q.costNs.Snapshot()
		if snap.Count == 0 {
			continue
		}
		m := snap.Mean()
		means[q.d] = m
		if m > maxMean {
			maxMean = m
		}
	}
	minW := 1.0
	for _, q := range s.queues {
		w := 1.0
		if m, ok := means[q.d]; ok && maxMean > 0 {
			w = m / maxMean
		}
		q.setWeight(w)
		if w < minW {
			minW = w
		}
	}
	s.minWeightBits.Store(math.Float64bits(minW))
}

// shedClass applies the cost-weighted admission predicate to q while
// the controller is shedding.
func (s *Server) shedClass(q *queue) bool {
	return ShedClass(q.weight(), math.Float64frombits(s.minWeightBits.Load()),
		s.ctl.Ratio(), s.ctl.Enter)
}

// submit runs admission control and, if the request is admitted,
// enqueues it. deliver is invoked exactly once in every path —
// synchronously for rejections, from a decode worker for admitted
// requests — with a response the caller owns. The syndrome is copied,
// so the caller may reuse its buffer immediately.
func (s *Server) submit(d int, e lattice.ErrorType, id uint64, syn []bool, deliver func(*Response)) {
	s.reqTotal.Inc()
	// One clock read covers the arrival meter, the accept stamp and the
	// task's enqueue time: the in-process gap from accept to the queue
	// is tens of nanoseconds, far below anything the decomposition cares
	// about, so it is no stage of its own.
	now := time.Now()
	sp := s.tracer.Start(id, d, uint8(e))
	nowNs := now.UnixNano()
	sp.StampAt(trace.StageAccept, nowNs)
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.errTotal.Inc()
		sp.FinishError()
		deliver(&Response{ID: id, Status: StatusError, Msg: "server draining"})
		return
	}
	q := s.queues[queueKey{d, e}]
	if q == nil {
		s.mu.RUnlock()
		s.errTotal.Inc()
		sp.FinishError()
		deliver(&Response{ID: id, Status: StatusError,
			Msg: fmt.Sprintf("unsupported distance %d (serving %v)", d, s.cfg.Distances)})
		return
	}
	if want := s.pool.Graph(d, e).NumChecks(); len(syn) != want {
		s.mu.RUnlock()
		s.errTotal.Inc()
		sp.FinishError()
		deliver(&Response{ID: id, Status: StatusError,
			Msg: fmt.Sprintf("syndrome has %d checks, d=%d wants %d", len(syn), d, want)})
		return
	}
	if s.ctl.Shedding() && s.shedClass(q) {
		s.mu.RUnlock()
		s.shedTotal.Inc()
		s.recordShed(sp, id, d, e, trace.ReasonController, len(q.ch), q.weight(), 0)
		r := s.getResp()
		r.ID, r.Status = id, StatusShed
		deliver(r)
		return
	}
	s.meter.tick(now)
	// The syndrome is copied into a queue-owned pooled buffer before
	// submit returns, so the caller (readLoop's reused frame buffer) may
	// overwrite its slice immediately — the aliasing regression test
	// pins exactly this.
	buf := q.getSyn(len(syn))
	copy(buf, syn)
	t := task{id: id, syn: buf, deliver: deliver, sp: sp, enqNs: nowNs}
	select {
	case q.ch <- t:
		s.mu.RUnlock()
		s.kick(q)
	default:
		// Queue full: the hard backpressure bound. The controller's
		// model-driven shedding usually engages first; this path covers
		// bursts faster than its evaluation period.
		s.mu.RUnlock()
		q.putSyn(buf)
		s.shedTotal.Inc()
		s.recordShed(sp, id, d, e, trace.ReasonQueueFull, len(q.ch), q.weight(), 0)
		r := s.getResp()
		r.ID, r.Status = id, StatusShed
		deliver(r)
	}
}

// kick makes sure the queue's enqueued work will be drained: if the
// queue is below its drain-concurrency bound, a free drain slot is
// submitted to the shared scheduler. The check runs under q.mu, which
// pairs with the exit-recheck in drainTask.Run — after any successful
// enqueue+kick, either an active drain observes the task or a new
// drain is spawned, so no admitted request can strand.
func (s *Server) kick(q *queue) {
	q.mu.Lock()
	if q.active >= s.cfg.Workers || len(q.free) == 0 {
		q.mu.Unlock()
		return
	}
	dt := q.free[len(q.free)-1]
	q.free = q.free[:len(q.free)-1]
	q.active++
	q.mu.Unlock()
	s.sched.Submit(dt)
}

// Decode runs one request through admission and the decode pipeline,
// blocking for its response. This is the synchronous path behind the
// HTTP handler; the framed TCP path pipelines instead (see ServeConn).
func (s *Server) Decode(d int, e lattice.ErrorType, id uint64, syn []bool) *Response {
	ch := make(chan *Response, 1)
	s.submit(d, e, id, syn, func(r *Response) { ch <- r })
	r := <-ch
	// The synchronous caller is its own transport: receiving the
	// response is the response write.
	if r.span != nil {
		r.span.Stamp(trace.StageRespWrite)
		r.span.Finish()
		r.span = nil
	}
	return r
}

// Run implements sched.Task: drain the queue until it is empty,
// coalescing whatever is queued — without waiting — into up to one full
// batch of mesh lanes per decode, then retire the slot. Coalescing is
// opportunistic by design: an idle service decodes single requests at
// scalar latency, a saturated one fills all lanes and rides the SWAR
// kernel's per-instruction parallelism. The task never blocks on the
// queue channel, so it can share scheduler workers with every other
// queue's drains.
func (dt *drainTask) Run() {
	s, q := dt.s, dt.q
	stolen := dt.stolen
	dt.stolen = false
	maxWait := int64(s.cfg.MaxQueueWait)
	for {
		dt.tasks = dt.tasks[:0]
		// One clock read per batch prices the sojourn bound; the coalesce
		// loop below runs in microseconds, so per-pop re-reads would buy
		// no accuracy the 12.5%-wide histograms could see.
		var nowNs int64
		if maxWait > 0 {
			nowNs = time.Now().UnixNano()
		}
	coalesce:
		for len(dt.tasks) < dt.b.Lanes() {
			select {
			case t, ok := <-q.ch:
				if !ok {
					break coalesce
				}
				// CoDel-style sojourn bound: a request that aged past
				// MaxQueueWait while more work is queued behind it is
				// already useless to a per-round latency budget — drop it
				// (StatusShed, ReasonSojourn) and spend the lanes on
				// requests that can still make their deadline. The
				// backlog guard (len(q.ch) > 0) means the newest queued
				// request is always decoded, so an idle or draining
				// service still answers everything.
				if maxWait > 0 && len(q.ch) > 0 && nowNs-t.enqNs > maxWait {
					s.dropSojourn(q, t, nowNs-t.enqNs)
					continue
				}
				dt.tasks = append(dt.tasks, t)
			default:
				break coalesce
			}
		}
		if len(dt.tasks) > 0 {
			s.batchLanes.Observe(uint64(len(dt.tasks)))
			// One clock read prices the whole batch's queue wait: every
			// lane left its queue when the coalesce loop closed.
			coalNs := time.Now().UnixNano()
			for i := range dt.tasks {
				t := &dt.tasks[i]
				if w := coalNs - t.enqNs; w >= 0 {
					s.queueWaitNs.Observe(uint64(w))
				}
				t.sp.StampAt(trace.StageCoalesce, coalNs)
				if stolen {
					t.sp.SetFlag(trace.FlagStolenDrain)
				}
			}
			stolen = false // only the dispatch batch rode the steal
			s.decodeTasks(dt, coalNs)
			continue
		}
		// Exit-recheck, paired with kick: the queue looked empty, but a
		// producer may have enqueued after our last poll and seen this
		// drain still active (so it didn't spawn another). Re-checking
		// the channel under q.mu before retiring closes that window.
		q.mu.Lock()
		if len(q.ch) > 0 {
			q.mu.Unlock()
			continue
		}
		q.active--
		q.free = append(q.free, dt)
		q.cond.Broadcast()
		q.mu.Unlock()
		return
	}
}

// dropSojourn sheds one task the sojourn bound condemned: the decision
// is recorded with the measured wait, the syndrome buffer is recycled,
// and the client still gets its exactly-once response (StatusShed).
func (s *Server) dropSojourn(q *queue, t task, sojournNs int64) {
	s.shedTotal.Inc()
	s.sojournDrop.Inc()
	s.recordShed(t.sp, t.id, q.d, q.e, trace.ReasonSojourn, len(q.ch), q.weight(), sojournNs)
	q.putSyn(t.syn)
	r := s.getResp()
	r.ID, r.Status = t.id, StatusShed
	t.deliver(r)
}

// ObserveSchedWait implements sched.WaitObserver: the scheduler calls
// it on the executing worker immediately before Run with how long this
// drain sat in the deques and whether it arrived by steal. The wait
// feeds serve_sched_wait_ns — the scheduler's share of every coalesced
// request's queue-wait stage — and the steal flag rides into the
// dispatch batch's spans as FlagStolenDrain.
func (dt *drainTask) ObserveSchedWait(waitNs int64, stolen bool) {
	if waitNs >= 0 {
		dt.s.schedWaitNs.Observe(uint64(waitNs))
	}
	if stolen {
		dt.s.drainSteals.Inc()
	}
	dt.stolen = stolen
}

// decodeTasks decodes one batch, coalesced at coalNs, and delivers its
// responses. Each response owns its qubit slice (the corrections alias
// the worker's scratch, which the next batch reuses).
func (s *Server) decodeTasks(dt *drainTask, coalNs int64) {
	b, g, tasks := dt.b, dt.g, dt.tasks
	dt.syns = dt.syns[:0]
	for i := range tasks {
		dt.syns = append(dt.syns, tasks[i].syn)
	}
	start := time.Now()
	cs, err := b.DecodeBatchInto(g, dt.syns, dt.scr)
	elapsed := time.Since(start)
	// Batch stage stamps come from the two clock reads already paid for
	// the service-time signal; every lane shares them.
	startNs := start.UnixNano()
	endNs := startNs + elapsed.Nanoseconds()
	if w := startNs - coalNs; w >= 0 {
		s.coalesceNs.ObserveN(uint64(w), uint64(len(tasks)))
	}
	if err != nil {
		s.errTotal.Add(int64(len(tasks)))
		for i := range tasks {
			tasks[i].sp.FinishError()
			dt.q.putSyn(tasks[i].syn)
			tasks[i].deliver(&Response{ID: tasks[i].id, Status: StatusError, Msg: err.Error()})
		}
		return
	}
	// The controller's service-time signal: wall-clock cost per request,
	// so lane sharing shows up as the speedup it is.
	perNs := uint64(elapsed.Nanoseconds()) / uint64(len(tasks))
	for i := range tasks {
		sp := tasks[i].sp
		sp.StampAt(trace.StageDecodeStart, startNs)
		sp.StampAt(trace.StageDecodeEnd, endNs)
		// ObserveExemplar tags the bucket with the trace seq (0 = plain
		// observe), linking high serve_decode_ns buckets to traces.
		s.decodeNs.ObserveExemplar(perNs, sp.Seq())
		// The per-distance cost histogram behind the admission weights.
		dt.q.costNs.Observe(perNs)
		st := b.LaneStats(i)
		escalate := s.escCh != nil && s.escPol.Escalate(st)
		resp := s.getResp()
		resp.ID = tasks[i].id
		resp.Status = StatusOK
		resp.Escalated = escalate
		resp.Cycles = uint32(st.Cycles)
		resp.span = sp
		if qs := cs[i].Qubits; len(qs) > 0 {
			// The corrections alias the worker's scratch (the next batch
			// reuses it); the response's retained Qubits capacity takes a
			// copy, growing only on first use per pooled response.
			if cap(resp.Qubits) < len(qs) {
				resp.Qubits = make([]int32, len(qs))
			} else {
				resp.Qubits = resp.Qubits[:len(qs)]
			}
			for j, qb := range qs {
				resp.Qubits[j] = int32(qb)
			}
		}
		s.okTotal.Inc()
		if escalate {
			// The reference for level 2 must be taken before the response
			// leaves: once delivered, the transport may finish the span at
			// any moment.
			sp.SetFlag(trace.FlagEscalated)
			sp.AddRef()
		}
		tasks[i].deliver(resp)
		if escalate {
			// The response is out; the syndrome copy is now free to hand
			// to level 2 (which recycles it into the queue's free list
			// when done). A full queue drops the escalation rather than
			// stalling this worker — level 1 never waits on level 2.
			select {
			case s.escCh <- escTask{g: g, q: dt.q, syn: tasks[i].syn, sp: sp, endNs: endNs}:
				s.escDepth.Add(1)
			default:
				s.escDropped.Inc()
				sp.SetFlag(trace.FlagEscDropped)
				s.recordEscDrop(tasks[i].id, dt.q)
				sp.Finish() // release the level-2 reference: it never ran
				dt.q.putSyn(tasks[i].syn)
			}
		} else {
			// Decoded, delivered, not escalated: nothing references the
			// syndrome copy — recycle it.
			dt.q.putSyn(tasks[i].syn)
		}
	}
}

// runEscWorker drains the escalation queue: each task is re-decoded by
// exact MWPM with worker-owned scratch, feeding the level-2 latency
// histogram the controller and the backlog model consume.
func (s *Server) runEscWorker() {
	defer s.escWG.Done()
	scratch := decodepool.NewScratch()
	dec := mwpm.New()
	for et := range s.escCh {
		s.escDepth.Add(-1)
		start := time.Now()
		startNs := start.UnixNano()
		if w := startNs - et.endNs; w >= 0 {
			s.escWaitNs.Observe(uint64(w))
		}
		et.sp.StampAt(trace.StageEscalateStart, startNs)
		if _, err := dec.DecodeInto(et.g, et.syn, scratch); err != nil {
			s.errTotal.Inc()
			et.sp.Finish()
			et.q.putSyn(et.syn)
			continue
		}
		elapsed := time.Since(start)
		et.sp.StampAt(trace.StageEscalateEnd, startNs+elapsed.Nanoseconds())
		s.escalateNs.Observe(uint64(elapsed.Nanoseconds()))
		s.escTotal.Inc()
		et.sp.Finish()
		et.q.putSyn(et.syn)
	}
}

// Serve accepts framed-TCP connections on ln until the listener closes
// (Close closes every registered listener). It returns nil after a
// graceful Close, the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("serve: server is closed")
	}
	s.listeners = append(s.listeners, ln)
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.RLock()
			closed := s.closed
			s.mu.RUnlock()
			if closed {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			s.ServeConn(c)
		}()
	}
}

// Close drains and stops the server: admission switches to "draining"
// errors, connection readers are unblocked, every already-admitted
// request is decoded and its response delivered, and the decode workers
// return their meshes to the pool. Close blocks until all of that is
// done; after it returns, the pool's Outstanding count is back to its
// pre-server value.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	lns := s.listeners
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	close(s.tickerStop)
	<-s.tickerDone
	for _, ln := range lns {
		ln.Close()
	}
	// Unblock every connection reader; writers then drain each
	// connection's in-flight responses before closing it.
	for _, c := range conns {
		c.cancelRead()
	}
	s.connWG.Wait()
	// No admissions can be in flight (they hold the read lock, and
	// closed was set under the write lock), so the queues are safe to
	// close; receives keep delivering the buffered remainder, and the
	// kick/exit-recheck invariant guarantees an active drain exists for
	// any queue that still holds one, so waiting for active == 0 waits
	// for every admitted request to be decoded and delivered.
	for _, q := range s.queues {
		close(q.ch)
	}
	for _, q := range s.queues {
		q.mu.Lock()
		for q.active > 0 {
			q.cond.Wait()
		}
		q.mu.Unlock()
	}
	// All drains retired and nothing can spawn more: stop the shared
	// scheduler and hand the pooled meshes back.
	s.sched.Close()
	for _, q := range s.queues {
		for _, dt := range q.drains {
			if dt.pooled {
				s.pool.Put(dt.b)
			}
		}
	}
	// Decode workers were the only escalation producers; drain level 2
	// so every admitted escalation is decoded (or was counted dropped)
	// before Close returns.
	if s.escCh != nil {
		close(s.escCh)
		s.escWG.Wait()
	}
	return nil
}
