package serve

import (
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/obs/trace"
	"repro/internal/sfq"
)

// discardConn is a net.Conn whose writes succeed into the void and
// whose reads block until Close: the write side of the steady-state
// allocation harness, where only the server's own path may allocate.
type discardConn struct {
	mu     sync.Mutex
	closed chan struct{}
}

func newDiscardConn() *discardConn { return &discardConn{closed: make(chan struct{})} }

func (c *discardConn) Read(p []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}
func (c *discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *discardConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	return nil
}
func (c *discardConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *discardConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *discardConn) SetDeadline(t time.Time) error      { return nil }
func (c *discardConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *discardConn) SetWriteDeadline(t time.Time) error { return nil }

// TestSubmitCopiesSyndrome pins the aliasing contract the pooling work
// leans on: submit copies the syndrome into a server-owned buffer
// before returning, so a caller (readLoop's reused frame buffer) may
// overwrite its slice the instant submit returns. The test corrupts the
// buffer immediately after submit and checks the correction still
// matches a decode of the uncorrupted syndrome.
func TestSubmitCopiesSyndrome(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{Variant: sfq.Final, Distances: []int{9}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: -1})
	defer s.Close()

	syns := confSyndromes(9, lattice.ZErrors, confTrials(64, 16))
	for i, syn := range syns {
		want := s.Decode(9, lattice.ZErrors, uint64(1000+i), append([]bool(nil), syn...))
		if want.Status != StatusOK {
			t.Fatalf("reference decode %d: status %v", i, want.Status)
		}
		wantQ := append([]int32(nil), want.Qubits...)
		wantC := want.Cycles

		buf := append([]bool(nil), syn...)
		ch := make(chan *Response, 1)
		s.submit(9, lattice.ZErrors, uint64(i), buf, func(r *Response) { ch <- r })
		// submit has returned: the syndrome must already be copied.
		// Corrupt every bit before the decode worker (asynchronously)
		// gets to it.
		for j := range buf {
			buf[j] = !buf[j]
		}
		got := <-ch
		if got.Status != StatusOK {
			t.Fatalf("decode %d: status %v", i, got.Status)
		}
		if got.Cycles != wantC {
			t.Fatalf("decode %d: cycles %d after buffer reuse, want %d", i, got.Cycles, wantC)
		}
		if len(got.Qubits) != len(wantQ) {
			t.Fatalf("decode %d: %d qubits after buffer reuse, want %d",
				i, len(got.Qubits), len(wantQ))
		}
		for j := range wantQ {
			if got.Qubits[j] != wantQ[j] {
				t.Fatalf("decode %d: qubit[%d] = %d after buffer reuse, want %d",
					i, j, got.Qubits[j], wantQ[j])
			}
		}
	}
}

// TestWireAliasingPipelined drives two back-to-back frames through
// ServeConn over a pipe: the second frame overwrites readLoop's reused
// buffer while the first may still be in the decode queue — the exact
// interleaving the copy in submit exists for.
func TestWireAliasingPipelined(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{Variant: sfq.Final, Distances: []int{9}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: -1})
	defer s.Close()

	cs, ss := net.Pipe()
	go s.ServeConn(ss)
	cl := NewClient(cs)
	defer cl.Close()

	syns := confSyndromes(9, lattice.ZErrors, confTrials(32, 8))
	chans := make([]<-chan *Response, len(syns))
	wants := make([]*Response, len(syns))
	for i, syn := range syns {
		wants[i] = s.Decode(9, lattice.ZErrors, uint64(2000+i), append([]bool(nil), syn...))
		ch, err := cl.Send(&Request{D: 9, EType: lattice.ZErrors, Syndrome: syn})
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		got := <-ch
		if got == nil || got.Status != StatusOK {
			t.Fatalf("response %d: %+v", i, got)
		}
		if got.Cycles != wants[i].Cycles || len(got.Qubits) != len(wants[i].Qubits) {
			t.Fatalf("response %d: cycles/qubits (%d, %d) want (%d, %d)",
				i, got.Cycles, len(got.Qubits), wants[i].Cycles, len(wants[i].Qubits))
		}
		for j := range got.Qubits {
			if got.Qubits[j] != wants[i].Qubits[j] {
				t.Fatalf("response %d qubit[%d]: %d want %d",
					i, j, got.Qubits[j], wants[i].Qubits[j])
			}
		}
	}
}

// TestSteadyStateZeroAllocs is the AllocsPerRun-0 gate on the
// steady-state serve path: submit → queue → coalesce → decode →
// deliver → ring → response write, with the free lists warm, allocates
// nothing per request. ci.sh runs it by name; a regression here is a
// regression in the tail, not just in GC pressure.
func TestSteadyStateZeroAllocs(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{
		Variant:   sfq.Final,
		Distances: []int{9},
		Pool:      pool,
		Registry:  obs.NewRegistry(),
		// Tracing off: sampled spans are pooled but the 1-in-N record
		// copy is not part of the steady-state contract. The controller
		// loop is parked (EvalEvery huge) so its periodic snapshot
		// allocations stay out of the measurement.
		TraceSample: -1,
		EvalEvery:   time.Hour,
	})
	defer s.Close()

	nc := newDiscardConn()
	defer nc.Close()
	c := newSrvConn(s, nc)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()
	defer func() {
		c.mu.Lock()
		c.readDone = true
		c.cond.Broadcast()
		c.mu.Unlock()
		wg.Wait()
	}()

	syn := confSyndromes(9, lattice.ZErrors, 3)[2]
	q := s.queues[queueKey{9, lattice.ZErrors}]
	oneReq := func(id uint64) {
		c.mu.Lock()
		c.inflight++
		c.mu.Unlock()
		s.submit(9, lattice.ZErrors, id, syn, c.deliverFn)
		c.mu.Lock()
		for c.inflight != 0 {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}

	// Warm every free list and lazily grown structure: syndrome buffers,
	// responses, scheduler deques, bufio, the exemplar-free histograms.
	for i := 0; i < 64; i++ {
		q.putSyn(make([]bool, len(syn)))
	}
	for i := 0; i < 512; i++ {
		oneReq(uint64(i))
	}

	var id uint64 = 1 << 20
	allocs := testing.AllocsPerRun(200, func() {
		id++
		oneReq(id)
	})
	if allocs != 0 {
		t.Fatalf("steady-state serve path allocates %.2f objects/request, want 0", allocs)
	}
}

// TestShedClassMonotone is the property behind the shed-ordering
// guarantee: for any controller state, if a class sheds then every
// class of equal or lower weight sheds too — cheap d=3 traffic is
// always cut at or before expensive d=13 traffic.
func TestShedClassMonotone(t *testing.T) {
	prop := func(w1, w2, minW, ratio, enter float64) bool {
		abs := func(x float64) float64 {
			if x < 0 {
				return -x
			}
			return x
		}
		// Map the fuzzed floats into the domains the server feeds in.
		norm := func(x float64) float64 { return abs(x) - float64(int(abs(x))) } // [0, 1)
		w1, w2, minW = norm(w1), norm(w2), norm(minW)
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		enter = 0.5 + norm(enter)     // (0.5, 1.5)
		ratio = enter + 2*norm(ratio) // ≥ enter, as when shedding is engaged
		if ShedClass(w2, minW, ratio, enter) && !ShedClass(w1, minW, ratio, enter) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}

	// All-equal weights degrade to uniform shedding: every class is the
	// cheapest, so every class sheds — the pre-weighting behavior.
	for _, w := range []float64{0.1, 0.5, 1.0} {
		if !ShedClass(w, w, 1.05, 1.0) {
			t.Fatalf("ShedClass(%v, %v, 1.05, 1.0) = false, want uniform shed", w, w)
		}
	}
	// The severity ramp: just past Enter only the cheap class sheds.
	if !ShedClass(0.1, 0.1, 1.05, 1.0) {
		t.Fatal("cheapest class must shed the moment shedding engages")
	}
	if ShedClass(1.0, 0.1, 1.05, 1.0) {
		t.Fatal("most expensive class must survive a mild overload")
	}
	if !ShedClass(1.0, 0.1, 2.5, 1.0) {
		t.Fatal("every class sheds once severity saturates")
	}
}

// shedServer builds a server with mixed distances, synthetic
// per-distance decode costs, and the controller pinned into a shedding
// state at the given ratio — the deterministic overload harness for the
// ordering tests.
func shedServer(t *testing.T, ratio float64) *Server {
	t.Helper()
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{Variant: sfq.Final, Distances: []int{3, 9, 13}, Pool: pool,
		Registry: obs.NewRegistry(), EvalEvery: time.Hour, TraceSample: -1})
	// Synthetic measured costs: d=13 10× d=9, 100× d=3 — the shape the
	// real serve_decode_ns_d* histograms take (decode cost grows with
	// the lattice).
	for _, c := range []struct {
		d  int
		ns uint64
	}{{3, 5_000}, {9, 50_000}, {13, 500_000}} {
		q := s.queues[queueKey{c.d, lattice.ZErrors}]
		for i := 0; i < 100; i++ {
			q.costNs.Observe(c.ns)
		}
	}
	s.updateWeights()
	s.ctl.mu.Lock()
	s.ctl.shedding = true
	s.ctl.ratio = ratio
	s.ctl.mu.Unlock()
	return s
}

// shedCount submits n requests per distance against the pinned-overload
// server and returns how many were shed per distance.
func shedCount(t *testing.T, s *Server, n int) map[int]int {
	t.Helper()
	shed := map[int]int{}
	for _, d := range []int{3, 9, 13} {
		syn := make([]bool, s.pool.Graph(d, lattice.ZErrors).NumChecks())
		for i := 0; i < n; i++ {
			r := s.Decode(d, lattice.ZErrors, uint64(d*1000+i), syn)
			if r.Status == StatusShed {
				shed[d]++
			}
		}
	}
	return shed
}

// TestWeightedShedOrdering pins the ROADMAP property end to end: under
// overload with mixed d ∈ {3, 9, 13} traffic, the shed rate is monotone
// non-increasing in distance weight — d=3 shed first, d=13 last — and
// at a mild overload the expensive class is not shed at all.
func TestWeightedShedOrdering(t *testing.T) {
	const n = 50
	s := shedServer(t, 1.2) // severity 0.2: cuts w ≤ 0.2
	defer s.Close()
	shed := shedCount(t, s, n)
	if !(shed[3] >= shed[9] && shed[9] >= shed[13]) {
		t.Fatalf("shed counts not monotone in weight: d3=%d d9=%d d13=%d",
			shed[3], shed[9], shed[13])
	}
	if shed[3] != n {
		t.Fatalf("cheapest class: %d/%d shed, want all", shed[3], n)
	}
	if shed[13] != 0 {
		t.Fatalf("most expensive class: %d/%d shed at mild overload, want none", shed[13], n)
	}

	// Saturated overload sheds everything, weights or not.
	s2 := shedServer(t, 2.5)
	defer s2.Close()
	shed2 := shedCount(t, s2, n)
	for _, d := range []int{3, 9, 13} {
		if shed2[d] != n {
			t.Fatalf("saturated overload: d=%d shed %d/%d, want all", d, shed2[d], n)
		}
	}
}

// TestSojournDrop pins the CoDel-style drop policy: a drain that pops a
// request older than MaxQueueWait while more work is queued drops it
// (StatusShed, ReasonSojourn, counted in serve_sojourn_dropped_total),
// and the newest queued request is always decoded, however stale.
func TestSojournDrop(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	reg := obs.NewRegistry()
	s := New(Config{Variant: sfq.Final, Distances: []int{9}, Pool: pool,
		Registry: reg, EvalEvery: time.Hour, MaxQueueWait: 3 * time.Millisecond,
		TraceSample: 1})
	defer s.Close()

	q := s.queues[queueKey{9, lattice.ZErrors}]
	n := s.pool.Graph(9, lattice.ZErrors).NumChecks()
	type result struct {
		id uint64
		r  *Response
	}
	ch := make(chan result, 3)
	stale := time.Now().Add(-20 * time.Millisecond).UnixNano()
	fresh := time.Now().UnixNano()
	// Hand-built queue state: two stale requests with a fresh one queued
	// behind them. The drain must drop both stale ones (work remains
	// behind each) and decode the last, which empties the queue.
	for i, enq := range []int64{stale, stale, fresh} {
		id := uint64(i)
		q.ch <- task{id: id, syn: make([]bool, n), enqNs: enq,
			deliver: func(r *Response) { ch <- result{id, r} }}
	}
	s.kick(q)

	got := map[uint64]Status{}
	for i := 0; i < 3; i++ {
		select {
		case res := <-ch:
			got[res.id] = res.r.Status
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for responses")
		}
	}
	if got[0] != StatusShed || got[1] != StatusShed {
		t.Fatalf("stale requests: statuses %v/%v, want shed/shed", got[0], got[1])
	}
	if got[2] != StatusOK {
		t.Fatalf("newest request: status %v, want ok (backlog guard)", got[2])
	}
	if c := reg.Counter("serve_sojourn_dropped_total").Load(); c != 2 {
		t.Fatalf("serve_sojourn_dropped_total = %d, want 2", c)
	}
	// The decision records carry the measured sojourn and the class
	// weight — the inputs loadgen -trace-check asserts on.
	snap := s.Tracer().Snapshot()
	sojourns := 0
	for _, dec := range snap.Decisions {
		if dec.Reason == trace.ReasonSojourn {
			sojourns++
			if dec.SojournNs < int64(3*time.Millisecond) {
				t.Fatalf("sojourn decision records %d ns, want ≥ bound", dec.SojournNs)
			}
			if dec.Weight <= 0 {
				t.Fatalf("sojourn decision missing weight input: %+v", dec)
			}
		}
	}
	if sojourns != 2 {
		t.Fatalf("decision ring holds %d sojourn drops, want 2", sojourns)
	}
}

// TestClientFlushBatching pins the pipelining fix: sequential callers
// still flush per request (no latency regression for the sync case),
// and the flush counter moves.
func TestClientFlushBatching(t *testing.T) {
	pool := sfq.NewPool(sfq.Final)
	s := New(Config{Variant: sfq.Final, Distances: []int{9}, Pool: pool,
		Registry: obs.NewRegistry(), TraceSample: -1})
	defer s.Close()
	cs, ss := net.Pipe()
	go s.ServeConn(ss)
	cl := NewClient(cs)
	defer cl.Close()

	syn := make([]bool, s.pool.Graph(9, lattice.ZErrors).NumChecks())
	const seq = 10
	for i := 0; i < seq; i++ {
		if _, err := cl.Do(&Request{D: 9, EType: lattice.ZErrors, Syndrome: syn}); err != nil {
			t.Fatalf("sequential do %d: %v", i, err)
		}
	}
	if f := cl.Flushes(); f != seq {
		t.Fatalf("sequential sends: %d flushes for %d requests, want one each", f, seq)
	}

	// Concurrent pipelined senders: every request must still be answered
	// (the last-writer-flushes rule can batch but never strand bytes).
	const conc = 64
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			syn := make([]bool, len(syn))
			if _, err := cl.Do(&Request{D: 9, EType: lattice.ZErrors, Syndrome: syn}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent do: %v", err)
	}
	if f := cl.Flushes(); f < seq+1 || f > seq+conc {
		t.Fatalf("concurrent sends: flush count %d outside (%d, %d]", f, seq, seq+conc)
	}
}
