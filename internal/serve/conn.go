package serve

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"
	"time"

	"repro/internal/obs/trace"
)

// srvConn is one framed-TCP connection: a reader goroutine that parses
// and submits requests, and a writer goroutine that drains the
// connection's response queue. The two meet in a small amount of
// condition-variable state built around one invariant — every request
// the reader admits (inflight++) produces exactly one response that the
// writer consumes (inflight--), whether it came from a decode worker,
// admission control, or a protocol error. The writer therefore knows
// the connection is fully drained exactly when the reader has stopped,
// inflight is zero, and the queue is empty; responses are never lost on
// disconnect and never duplicated.
type srvConn struct {
	s  *Server
	nc net.Conn

	// deliverFn is the deliver method value, bound once at connection
	// setup: passing c.deliver inline to submit would allocate a fresh
	// method-value closure per request, the last per-request allocation
	// on the steady-state path.
	deliverFn func(*Response)

	mu   sync.Mutex
	cond *sync.Cond
	// Fixed ring of delivered-not-yet-written responses, sized by the
	// in-flight window: out length ≤ inflight ≤ Window, since every
	// deliver is preceded by exactly one inflight++. The old []*Response
	// FIFO shifted its backing array on every pop (out = out[1:]) and
	// re-grew it on every burst; the ring does neither.
	ring     []*Response
	head     int  // index of the oldest queued response
	n        int  // queued responses
	inflight int  // admitted, not yet written
	readDone bool // reader has exited
	canceled bool // server is draining: stop admitting
	dead     bool // a write failed: drain without writing
}

// newSrvConn builds the connection state without starting its loops.
// The steady-state allocation test drives the pieces directly.
func newSrvConn(s *Server, nc net.Conn) *srvConn {
	c := &srvConn{s: s, nc: nc, ring: make([]*Response, s.cfg.Window)}
	c.cond = sync.NewCond(&c.mu)
	c.deliverFn = c.deliver
	return c
}

// ServeConn runs the framed protocol on nc until the peer disconnects
// or the server drains, then closes nc. It blocks for the connection's
// lifetime; Serve calls it from a per-connection goroutine, and tests
// drive it directly over net.Pipe.
func (s *Server) ServeConn(nc net.Conn) {
	c := newSrvConn(s, nc)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.connGauge.Add(1)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.writeLoop()
	}()
	c.readLoop()
	wg.Wait()
	nc.Close()

	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.connGauge.Add(-1)
}

// cancelRead unblocks the connection's reader — both a blocked ReadFrame
// (via the read deadline) and a reader parked at the in-flight window —
// so Close can drain the connection without waiting for the peer.
func (c *srvConn) cancelRead() {
	c.nc.SetReadDeadline(time.Now())
	c.mu.Lock()
	c.canceled = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// deliver hands one response to the writer. It never blocks: responses
// queue on the connection's ring and the in-flight window bounds the
// ring, so a slow reader on the other end cannot stall a decode worker.
func (c *srvConn) deliver(r *Response) {
	c.mu.Lock()
	if c.n == len(c.ring) {
		// The window invariant bounds n at len(ring); growing instead of
		// dropping keeps delivery exactly-once even if that invariant is
		// ever violated by a future caller.
		grown := make([]*Response, 2*len(c.ring))
		for i := 0; i < c.n; i++ {
			grown[i] = c.ring[(c.head+i)%len(c.ring)]
		}
		c.ring, c.head = grown, 0
	}
	c.ring[(c.head+c.n)%len(c.ring)] = r
	c.n++
	c.cond.Broadcast()
	c.mu.Unlock()
	c.s.outDepth.Add(1)
}

// readLoop parses frames and submits requests until the peer closes,
// a protocol error occurs, or the server drains. The in-flight window
// is enforced here: at Window admitted-but-unanswered requests the
// reader stops, which stops consuming the socket, which backpressures
// the client through TCP itself.
func (c *srvConn) readLoop() {
	br := bufio.NewReader(c.nc)
	var buf []byte
	var req Request
	for {
		t, payload, err := ReadFrame(br, buf)
		buf = payload
		if err != nil || t != MsgDecode {
			break
		}
		perr := ParseRequest(payload, &req)
		if perr != nil && len(payload) < 8 {
			break // not even an ID to answer to
		}

		c.mu.Lock()
		for c.inflight >= c.s.cfg.Window && !c.canceled && !c.dead {
			c.cond.Wait()
		}
		if c.canceled || c.dead {
			c.mu.Unlock()
			break
		}
		c.inflight++
		c.mu.Unlock()

		if perr != nil {
			// The frame was well-formed but the request was not: answer
			// the ID with the parse error, then stop trusting the stream.
			c.s.errTotal.Inc()
			c.deliver(&Response{
				ID:     binary.LittleEndian.Uint64(payload),
				Status: StatusError,
				Msg:    perr.Error(),
			})
			break
		}
		c.s.submit(req.D, req.EType, req.ID, req.Syndrome, c.deliverFn)
	}
	c.mu.Lock()
	c.readDone = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// The out-queue flush bounds of writeLoop.
const (
	outFlushEvery    = 8
	outFlushInterval = 200 * time.Microsecond
)

// writeLoop writes responses in delivery order until the connection is
// drained: reader stopped, no request in flight, ring empty. After a
// write failure it keeps consuming (discarding) responses so the
// drained condition is still reached and no worker blocks.
//
// Flushing is batched: besides the queue-empty flush, the writer also
// flushes after outFlushEvery unflushed responses or once the oldest
// unflushed response has waited outFlushInterval. Under the old
// only-on-empty policy one slow escalated response could pin the ring
// non-empty while dozens of completed responses aged in the bufio
// buffer — the 19 ms resp_write outlier in the PR 9 traces.
func (c *srvConn) writeLoop() {
	bw := bufio.NewWriter(c.nc)
	var buf []byte
	unflushed := 0
	var oldestNs int64 // wall clock of the first unflushed response
	for {
		c.mu.Lock()
		for c.n == 0 && !(c.readDone && c.inflight == 0) {
			c.cond.Wait()
		}
		if c.n == 0 {
			c.mu.Unlock()
			break
		}
		resp := c.ring[c.head]
		c.ring[c.head] = nil
		c.head = (c.head + 1) % len(c.ring)
		c.n--
		last := c.n == 0
		dead := c.dead
		c.mu.Unlock()
		c.s.outDepth.Add(-1)

		if !dead {
			b, err := AppendResponse(buf[:0], resp)
			if err == nil {
				buf = b
				_, err = bw.Write(buf)
			}
			if err == nil {
				now := time.Now().UnixNano()
				if unflushed == 0 {
					oldestNs = now
				}
				unflushed++
				if last || unflushed >= outFlushEvery || now-oldestNs >= int64(outFlushInterval) {
					err = bw.Flush()
					unflushed = 0
				}
			}
			if err != nil {
				c.mu.Lock()
				c.dead = true
				c.cond.Broadcast()
				c.mu.Unlock()
			}
		}

		if resp.span != nil {
			// Written — or discarded on a dead connection; either way the
			// response has left the server, which is the final stage.
			resp.span.Stamp(trace.StageRespWrite)
			resp.span.Finish()
		}
		// Encoded onto the wire (or discarded): the response object is
		// free — recycle it so the steady-state path allocates nothing.
		c.s.putResp(resp)

		c.mu.Lock()
		c.inflight--
		c.cond.Broadcast()
		c.mu.Unlock()
	}
	bw.Flush()
}
