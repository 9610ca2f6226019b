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
