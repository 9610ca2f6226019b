package serve

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sfq"
	"repro/internal/twolevel"
)

// TestHammerExactlyOnce is the concurrency workout ci.sh runs under
// -race: many pipelined clients, abrupt disconnectors, a slow reader,
// and a drain — and afterwards the books must balance: every request a
// healthy client sent got exactly one response, and the mesh pool shows
// zero outstanding meshes, zero double puts, zero foreign puts.
func TestHammerExactlyOnce(t *testing.T) {
	const (
		clients    = 6
		perClient  = 120
		disconnect = 2 // this many clients hang up mid-stream
	)
	n := confTrials(perClient, 40)
	v := sfq.Final
	pool := sfq.NewPool(v)
	s := New(Config{
		Variant:    v,
		Distances:  []int{3},
		Window:     8,
		QueueDepth: 16,
		Pool:       pool,
		Registry:   obs.NewRegistry(),
	})

	syns := confSyndromes(3, lattice.ZErrors, 16)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			cliEnd, srvEnd := net.Pipe()
			go s.ServeConn(srvEnd)
			c := NewClient(cliEnd)
			defer c.Close()

			quitter := cl < disconnect
			var chans []<-chan *Response
			for i := 0; i < n; i++ {
				if quitter && i == n/2 {
					// Abrupt disconnect with requests in flight: the
					// server must drain them internally without leaking
					// meshes or blocking a worker on the dead writer.
					c.Close()
					return
				}
				ch, err := c.Send(&Request{D: 3, EType: lattice.ZErrors, Syndrome: syns[i%len(syns)]})
				if err != nil {
					if quitter {
						return
					}
					t.Errorf("client %d send %d: %v", cl, i, err)
					return
				}
				chans = append(chans, ch)
			}
			seen := 0
			for i, ch := range chans {
				resp, ok := <-ch
				if !ok {
					t.Errorf("client %d: stream died after %d responses: %v", cl, seen, c.Err())
					return
				}
				if resp.Status != StatusOK && resp.Status != StatusShed {
					t.Errorf("client %d req %d: status %v (%s)", cl, i, resp.Status, resp.Msg)
				}
				seen++
			}
			if seen != len(chans) {
				t.Errorf("client %d: %d responses for %d requests", cl, seen, len(chans))
			}
		}(cl)
	}

	// The slow reader: a raw connection that pushes requests past the
	// in-flight window while refusing to read responses for a while. The
	// server's writer must park on the bounded out-queue — never a decode
	// worker — and every response must still arrive once reading resumes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cliEnd, srvEnd := net.Pipe()
		go s.ServeConn(srvEnd)
		defer cliEnd.Close()
		const reqs = 12 // window is 8: the tail forces writer-side blocking
		writeDone := make(chan error, 1)
		go func() {
			var buf []byte
			for i := 0; i < reqs; i++ {
				b, err := AppendRequest(buf[:0], &Request{
					ID: uint64(i + 1), D: 3, EType: lattice.ZErrors, Syndrome: syns[i%len(syns)],
				})
				if err == nil {
					buf = b
					_, err = cliEnd.Write(b)
				}
				if err != nil {
					writeDone <- err
					return
				}
			}
			writeDone <- nil
		}()
		time.Sleep(10 * time.Millisecond) // let the window fill and the writer wedge
		br := bufio.NewReader(cliEnd)
		got := map[uint64]int{}
		var buf []byte
		var resp Response
		for len(got) < reqs {
			mt, payload, err := ReadFrame(br, buf)
			if err != nil {
				t.Errorf("slow reader: %v after %d responses", err, len(got))
				return
			}
			buf = payload
			if mt != MsgResult || ParseResponse(payload, &resp) != nil {
				t.Error("slow reader: bad frame from server")
				return
			}
			got[resp.ID]++
		}
		for id, n := range got {
			if n != 1 {
				t.Errorf("slow reader: response %d delivered %d times", id, n)
			}
		}
		if err := <-writeDone; err != nil {
			t.Errorf("slow reader writes: %v", err)
		}
	}()
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Outstanding != 0 {
		t.Errorf("%d meshes still outstanding after close", st.Outstanding)
	}
	if st.DoublePuts != 0 || st.Foreign != 0 {
		t.Errorf("pool rejected puts: %+v", st)
	}
	if st.Gets == 0 {
		t.Error("hammer never touched the pool; test is vacuous")
	}
}

// TestHammerEscalation is the two-level variant of the hammer: an
// aggressive policy flags most non-empty syndromes, a tiny escalation
// queue forces drops under load, and clients disconnect abruptly with
// flagged requests in flight. The books must still balance — exactly
// one response per request on healthy connections, pool accounting
// clean — and every flagged decode must be accounted as either a
// completed level-2 escalation or a counted drop.
func TestHammerEscalation(t *testing.T) {
	const (
		clients    = 5
		perClient  = 100
		disconnect = 2
	)
	n := confTrials(perClient, 30)
	pool := sfq.NewPool(sfq.Final)
	reg := obs.NewRegistry()
	pol := twolevel.Policy{OnRetry: true, OnUnresolved: true, HotThreshold: 1}
	s := New(Config{
		Variant:        sfq.Final,
		Distances:      []int{3, 5},
		Window:         8,
		QueueDepth:     16,
		Pool:           pool,
		Registry:       reg,
		Escalate:       true,
		EscalatePolicy: &pol,
		EscQueueDepth:  4, // small on purpose: the drop path must be exercised
		EscWorkers:     2,
	})

	var escalatedSeen, okSeen atomic.Int64
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			d := 3 + 2*(cl%2)
			syns := confSyndromes(d, lattice.ZErrors, 12)
			cliEnd, srvEnd := net.Pipe()
			go s.ServeConn(srvEnd)
			c := NewClient(cliEnd)
			defer c.Close()

			quitter := cl < disconnect
			var chans []<-chan *Response
			for i := 0; i < n; i++ {
				if quitter && i == n/2 {
					c.Close()
					return
				}
				ch, err := c.Send(&Request{D: d, EType: lattice.ZErrors, Syndrome: syns[i%len(syns)]})
				if err != nil {
					if quitter {
						return
					}
					t.Errorf("client %d send %d: %v", cl, i, err)
					return
				}
				chans = append(chans, ch)
			}
			for i, ch := range chans {
				resp, ok := <-ch
				if !ok {
					t.Errorf("client %d: stream died at response %d: %v", cl, i, c.Err())
					return
				}
				switch resp.Status {
				case StatusOK:
					okSeen.Add(1)
					if resp.Escalated {
						escalatedSeen.Add(1)
					}
				case StatusShed:
					if resp.Escalated {
						t.Errorf("client %d: escalated flag on shed response", cl)
					}
				default:
					t.Errorf("client %d req %d: status %v (%s)", cl, i, resp.Status, resp.Msg)
				}
			}
		}(cl)
	}
	wg.Wait()

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if escalatedSeen.Load() == 0 {
		t.Fatal("no escalated response observed; hammer is vacuous")
	}
	if okSeen.Load() == escalatedSeen.Load() {
		t.Error("every OK response escalated; corpus should mix verdicts")
	}
	// Every flagged response enqueued exactly one level-2 task or counted
	// one drop, and Close drained the queue — so completions plus drops
	// cover at least the escalations healthy clients observed (abrupt
	// disconnectors may have contributed more).
	done := reg.Counter("serve_escalations_total").Load()
	dropped := reg.Counter("serve_escalate_dropped_total").Load()
	if done+dropped < escalatedSeen.Load() {
		t.Errorf("escalations done %d + dropped %d < observed flagged %d",
			done, dropped, escalatedSeen.Load())
	}
	if done == 0 {
		t.Error("level-2 workers completed nothing")
	}
	if reg.Histogram("serve_escalate_ns").Snapshot().Count != uint64(done) {
		t.Error("escalate histogram count disagrees with escalations counter")
	}

	st := pool.Stats()
	if st.Outstanding != 0 || st.DoublePuts != 0 || st.Foreign != 0 {
		t.Errorf("pool accounting after escalation hammer: %+v", st)
	}
}

// TestCloseMidTraffic drains the server while clients are still
// sending: every in-flight request must still get exactly one response
// (decoded or a draining error), Close must not deadlock, and the pool
// must balance.
func TestCloseMidTraffic(t *testing.T) {
	v := sfq.Final
	pool := sfq.NewPool(v)
	s := New(Config{Variant: v, Distances: []int{3}, Window: 4, Pool: pool, Registry: obs.NewRegistry()})
	syns := confSyndromes(3, lattice.ZErrors, 8)

	const clients = 4
	var wg sync.WaitGroup
	started := make(chan struct{}, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			cliEnd, srvEnd := net.Pipe()
			go s.ServeConn(srvEnd)
			c := NewClient(cliEnd)
			defer c.Close()
			var chans []<-chan *Response
			for i := 0; ; i++ {
				ch, err := c.Send(&Request{D: 3, EType: lattice.ZErrors, Syndrome: syns[i%len(syns)]})
				if err != nil {
					break // the drain reached this connection
				}
				chans = append(chans, ch)
				if i == 0 {
					started <- struct{}{}
				}
			}
			// Whatever was accepted gets exactly one response before the
			// stream ends; after it ends, channels just close.
			for _, ch := range chans {
				resp, ok := <-ch
				if !ok {
					continue
				}
				switch resp.Status {
				case StatusOK, StatusShed, StatusError:
				default:
					t.Errorf("client %d: invalid status %v", cl, resp.Status)
				}
			}
		}(cl)
	}
	for cl := 0; cl < clients; cl++ {
		<-started
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked with clients mid-traffic")
	}
	wg.Wait()

	if st := pool.Stats(); st.Outstanding != 0 || st.DoublePuts != 0 || st.Foreign != 0 {
		t.Errorf("pool accounting after mid-traffic close: %+v", st)
	}
	// A post-close submission is answered, not enqueued.
	if resp := s.Decode(3, lattice.ZErrors, 1, syns[0]); resp.Status != StatusError {
		t.Errorf("post-close decode: %+v, want draining error", resp)
	}
}

// TestHostilePeers runs a well-behaved TCP client while two kinds of
// raw connection misbehave around it, round after round: one sends a
// few requests, writes half of the next frame and closes; the other
// does the same but resets the connection (SetLinger(0)) instead of
// closing it. Every request of the well-behaved client must be answered
// exactly once, the misbehaving connections must be torn down, and the
// pool must balance: the meshes the server holds while it runs are back
// after Close, with no double or foreign puts.
func TestHostilePeers(t *testing.T) {
	const (
		rounds   = 8
		perPeer  = 3 // whole requests each misbehaving peer sends first
		minGood  = 100
		interval = 3 * time.Millisecond
	)
	pool := sfq.NewPool(sfq.Final)
	reg := obs.NewRegistry()
	s := New(Config{
		Variant:    sfq.Final,
		Distances:  []int{3, 5},
		Window:     8,
		QueueDepth: 16,
		Pool:       pool,
		Registry:   reg,
		Escalate:   true,
	})
	held := pool.Stats().Outstanding
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()
	addr := ln.Addr().String()

	syns := map[int][][]bool{3: confSyndromes(3, lattice.ZErrors, 12), 5: confSyndromes(5, lattice.ZErrors, 12)}
	frame := func(id uint64) []byte {
		d := 3 + 2*int(id%2)
		b, err := AppendRequest(nil, &Request{ID: id, D: d, EType: lattice.ZErrors, Syndrome: syns[d][int(id)%len(syns[d])]})
		if err != nil {
			panic(err) // the corpus is valid by construction
		}
		return b
	}

	var hostile sync.WaitGroup
	hostileDone := make(chan struct{})
	misbehave := func(reset bool) {
		defer hostile.Done()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			return
		}
		for id := uint64(1); id <= perPeer; id++ {
			if _, err := c.Write(frame(id)); err != nil {
				t.Error(err)
			}
		}
		half := frame(perPeer + 1)
		if _, err := c.Write(half[:len(half)/2]); err != nil {
			t.Error(err)
		}
		time.Sleep(2 * time.Millisecond) // let the server read into the half frame
		if reset {
			c.(*net.TCPConn).SetLinger(0)
		}
		c.Close()
	}
	go func() {
		for r := 0; r < rounds; r++ {
			hostile.Add(2)
			go misbehave(false)
			go misbehave(true)
			time.Sleep(interval)
		}
		hostile.Wait()
		close(hostileDone)
	}()

	// The well-behaved client keeps sending until every misbehaving peer
	// has come and gone, then half-closes its side and reads until the
	// server hangs up. It counts every response frame by ID, so a
	// duplicate shows even after all IDs have arrived.
	good, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(chan uint64, 1)
	go func() {
		id := uint64(0)
		defer func() { sent <- id }()
		for {
			select {
			case <-hostileDone:
				if id >= minGood {
					if err := good.(*net.TCPConn).CloseWrite(); err != nil {
						t.Error(err)
					}
					return
				}
			default:
			}
			if _, err := good.Write(frame(id + 1)); err != nil {
				t.Errorf("well-behaved client write %d: %v", id+1, err)
				return
			}
			id++
		}
	}()

	got := map[uint64]int{}
	frames := 0
	br := bufio.NewReader(good)
	var buf []byte
	var resp Response
	for {
		mt, payload, err := ReadFrame(br, buf)
		if err != nil {
			break // the server hung up after the last response
		}
		buf = payload
		if mt != MsgResult || ParseResponse(payload, &resp) != nil {
			t.Fatal("well-behaved client: bad frame from server")
		}
		if resp.Status != StatusOK && resp.Status != StatusShed {
			t.Errorf("request %d: status %v (%s)", resp.ID, resp.Status, resp.Msg)
		}
		got[resp.ID]++
		frames++
	}
	good.Close()
	n := <-sent
	if frames != int(n) || len(got) != int(n) {
		t.Errorf("well-behaved client: %d response frames for %d distinct IDs, sent %d", frames, len(got), n)
	}
	for id, k := range got {
		if id < 1 || id > n || k != 1 {
			t.Errorf("request %d answered %d times", id, k)
		}
	}
	// The half-closing peers' whole requests were admitted, so the
	// server saw more than the well-behaved client sent.
	if reqs := reg.Counter("serve_requests_total").Load(); reqs < int64(n)+rounds*perPeer {
		t.Errorf("server admitted %d requests, want at least %d: the hostile peers were not served", reqs, int64(n)+rounds*perPeer)
	}

	// Every connection, hostile ones included, is torn down.
	conns := reg.Gauge("serve_conns")
	for deadline := time.Now().Add(10 * time.Second); conns.Load() != 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if c := conns.Load(); c != 0 {
		t.Errorf("%d connections still open after every peer left", c)
	}
	if st := pool.Stats(); st.Outstanding != held {
		t.Errorf("pool outstanding %d while serving, want the %d the server holds", st.Outstanding, held)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
	if st := pool.Stats(); st.Outstanding != 0 || st.DoublePuts != 0 || st.Foreign != 0 {
		t.Errorf("pool accounting after hostile peers: %+v", st)
	}
}
