package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/lattice"
	"repro/internal/serve"
)

const (
	// sloLimit is the per-request latency limit of latency.slo_ratio.
	sloLimit = 10 * time.Millisecond
	// drainTimeout bounds the wait for responses after the last send; a
	// request still unanswered then is a timeout (a lost response: the
	// server's queues, window and sojourn bound keep every legitimate
	// response far inside it).
	drainTimeout = 5 * time.Second
	// serveConns is the number of framed-TCP connections, one per CPU
	// of the measurement box.
	serveConns = 2
	// warmPerDistance is how many warm-up requests each distance gets.
	warmPerDistance = 16
	// setupRepeats is how many times a run sets up; setup_s is the median.
	setupRepeats = 9
)

// serveWorkload is one traffic mix against cmd/serve. retries is how
// many times the client re-sends a request the server shed: the
// protocol lets a client retry a shed (StatusShed), and a request fails
// only when its last attempt is shed too.
type serveWorkload struct {
	name    string
	tr      traffic
	retries int
}

// Request outcomes. Every scheduled request ends in exactly one.
const (
	stPending uint8 = iota
	stOK            // StatusOK with the reference correction
	stWrong         // StatusOK with any other correction
	stShed
	stError
	stTimeout
)

// reqRec is one request's life, in ns since the phase start: scheduled
// send time, dispatch (the pacer reached it), the first Send's return,
// and the final response's arrival at its waiter (rtt includes any
// retries). lag + send + rtt = latency exactly.
type reqRec struct {
	sched, disp, sent, done int64
	status                  uint8
	esc                     bool
	retries                 uint8
}

// driveResult is one open-loop phase's outcome.
type driveResult struct {
	recs     []reqRec
	flushes  uint64 // client socket flushes during the phase
	timedOut bool
}

// drive plays arrivals open-loop over clients: each request is sent at
// its scheduled time whatever the state of earlier ones, a shed request
// is re-sent on its connection up to retries times, and every final
// response is checked against the reference answer. On return every
// waiter has finished; after a timeout the clients are closed.
func drive(clients []*serve.Client, gen *generated, arrivals []arrival, retries int, timeout time.Duration) *driveResult {
	res := &driveResult{recs: make([]reqRec, len(arrivals))}
	var flush0 uint64
	for _, c := range clients {
		flush0 += c.Flushes()
	}
	var wg sync.WaitGroup
	var timedOut atomic.Bool
	// The pacer sleeps in nanosleep on its own thread with 1 ns timer
	// slack: a Go timer wakes up to a millisecond late (the poller waits
	// in whole milliseconds), and spinning instead would starve the
	// network poller of the generator's single processor. While the
	// pacer sleeps, the runtime hands that processor to the response
	// readers.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	base := time.Now()
	for i, a := range arrivals {
		for {
			u := a.at - time.Since(base)
			if u <= 0 {
				break
			}
			if u > 2*time.Millisecond {
				time.Sleep(u - 2*time.Millisecond)
				continue
			}
			ts := syscall.NsecToTimespec(int64(u))
			syscall.Nanosleep(&ts, nil)
		}
		rec := &res.recs[i]
		rec.sched = int64(a.at)
		rec.disp = int64(time.Since(base))
		c := clients[i%len(clients)]
		syn := gen.syns[a.d][a.syn]
		ch, err := c.Send(&serve.Request{D: a.d, EType: lattice.ZErrors, Syndrome: syn})
		rec.sent = int64(time.Since(base))
		if err != nil {
			rec.status, rec.done = stError, rec.sent
			continue
		}
		wg.Add(1)
		go func(rec *reqRec, c *serve.Client, d int, syn []bool, want *expected) {
			defer wg.Done()
			for {
				resp, ok := <-ch
				rec.done = int64(time.Since(base))
				rec.status = classify(resp, ok, want, timedOut.Load())
				rec.esc = ok && resp.Escalated
				if rec.status != stShed || int(rec.retries) >= retries {
					return
				}
				var err error
				if ch, err = c.Send(&serve.Request{D: d, EType: lattice.ZErrors, Syndrome: syn}); err != nil {
					rec.status, rec.done = stError, int64(time.Since(base))
					return
				}
				rec.retries++
			}
		}(rec, c, a.d, syn, &gen.want[a.d][a.syn])
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		timedOut.Store(true)
		res.timedOut = true
		for _, c := range clients {
			c.Close() // wakes every waiter with a closed channel
		}
		<-done
	}
	for _, c := range clients {
		res.flushes += c.Flushes()
	}
	res.flushes -= flush0
	return res
}

// classify maps one response (ok false: the stream closed first) to its
// outcome, checking an OK correction against the reference.
func classify(resp *serve.Response, ok bool, want *expected, timedOut bool) uint8 {
	switch {
	case !ok && timedOut:
		return stTimeout
	case !ok:
		return stError
	case resp.Status == serve.StatusShed:
		return stShed
	case resp.Status != serve.StatusOK:
		return stError
	case resp.Cycles != want.cycles || !slices.Equal(sortedQubits(resp.Qubits), want.qubits):
		return stWrong
	}
	return stOK
}

// outcomeCounts tallies a phase's request outcomes by each request's
// final outcome. Retries counts the re-sends of shed requests that
// reached the wire, whatever their outcome; Sent counts scheduled
// requests only.
type outcomeCounts struct {
	Sent, OK, Wrong, Shed, Error, Timeout, Pending, Escalated, Retries int
}

func (r *driveResult) counts() outcomeCounts {
	var c outcomeCounts
	c.Sent = len(r.recs)
	for _, rec := range r.recs {
		switch rec.status {
		case stOK:
			c.OK++
		case stWrong:
			c.Wrong++
		case stShed:
			c.Shed++
		case stError:
			c.Error++
		case stTimeout:
			c.Timeout++
		default:
			c.Pending++
		}
		if rec.esc {
			c.Escalated++
		}
		c.Retries += int(rec.retries)
	}
	return c
}

// failed is every scheduled request not answered OK and correct.
func (c outcomeCounts) failed() int { return c.Sent - c.OK }

// broken reports outcomes that make a run incorrect: a wrong
// correction, a lost response, or a request left in no outcome.
func (c outcomeCounts) broken() bool { return c.Wrong > 0 || c.Timeout > 0 || c.Pending > 0 }

// phaseTimes are a phase's per-request times in µs, ascending: end-to-end
// latency of OK requests, and lag/send/rtt of every request that got a
// response. decompErr is the largest |lag+send+rtt−latency| seen and
// negative counts components that ran backwards; both must be 0.
type phaseTimes struct {
	latency, lag, send, rtt samples
	sloOK                   int
	decompErr               float64
	negative                int
}

func (r *driveResult) times() phaseTimes {
	var t phaseTimes
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, rec := range r.recs {
		if rec.status == stPending {
			continue
		}
		lag, send, rtt := rec.disp-rec.sched, rec.sent-rec.disp, rec.done-rec.sent
		if lag < 0 || send < 0 || rtt < 0 {
			t.negative++
		}
		lat := us(rec.done - rec.sched)
		if e := us(lag) + us(send) + us(rtt) - lat; e > t.decompErr || -e > t.decompErr {
			t.decompErr = max(e, -e)
		}
		t.lag = append(t.lag, us(lag))
		t.send = append(t.send, us(send))
		t.rtt = append(t.rtt, us(rtt))
		if rec.status == stOK {
			t.latency = append(t.latency, lat)
			if rec.done-rec.sched <= int64(sloLimit) {
				t.sloOK++
			}
		}
	}
	t.latency, t.lag, t.send, t.rtt = t.latency.sorted(), t.lag.sorted(), t.send.sorted(), t.rtt.sorted()
	return t
}

// server is one cmd/serve process.
type server struct {
	cmd    *exec.Cmd
	tcp    string
	http   string // http://host:port
	exited chan struct{}
	log    *os.File
}

// startServer launches the server binary with GOMAXPROCS=1 and waits
// until it has bound its listeners and answers /healthz.
func startServer(bin, dir string, n int, runtimeMetrics bool) (*server, error) {
	addrFile := filepath.Join(dir, fmt.Sprintf("serve-%d-%d.addr", os.Getpid(), n))
	os.Remove(addrFile)
	logf, err := os.Create(filepath.Join(dir, fmt.Sprintf("serve-%d-%d.log", os.Getpid(), n)))
	if err != nil {
		return nil, err
	}
	args := []string{"-d", "5,9,13", "-escalate", "-tcp", "127.0.0.1:0", "-http", "127.0.0.1:0", "-addr-file", addrFile}
	if runtimeMetrics {
		args = append(args, "-runtime-metrics")
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = serverEnv()
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(s.exited)
	}()
	if err := s.await(addrFile); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// serverEnv is this process's environment without REPRO_* knobs, with
// GOMAXPROCS=1: the server runs its defaults on one processor.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "REPRO_") && !strings.HasPrefix(kv, "GOMAXPROCS=") {
			env = append(env, kv)
		}
	}
	return append(env, "GOMAXPROCS=1")
}

func (s *server) await(addrFile string) error {
	deadline := time.Now().Add(30 * time.Second)
	for ; time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited during start-up (see %s)", s.log.Name())
		default:
		}
		if s.tcp == "" {
			s.readAddrs(addrFile)
			continue
		}
		if _, err := httpGet(s.http, "/healthz"); err == nil {
			return nil
		}
	}
	return errors.New("server did not become healthy within 30s")
}

func (s *server) readAddrs(addrFile string) {
	f, err := os.Open(addrFile)
	if err != nil {
		return
	}
	defer f.Close()
	var tcp, http string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, _ := strings.Cut(sc.Text(), " ")
		switch k {
		case "tcp":
			tcp = v
		case "http":
			http = "http://" + v
		}
	}
	if tcp != "" && http != "" {
		s.tcp, s.http = tcp, http
	}
}

// stop drains the server with SIGTERM and waits for it to exit, killing
// it if the drain takes over 10 s.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-s.exited
		return nil // already gone
	}
	select {
	case <-s.exited:
		return nil
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("server did not drain within 10s; killed")
	}
}

// dialAll opens the benchmark's client connections.
func dialAll(addr string) ([]*serve.Client, error) {
	var cs []*serve.Client
	for i := 0; i < serveConns; i++ {
		c, err := serve.Dial(addr)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*serve.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// warmUp sends warmPerDistance requests per distance on every
// connection until each distance has answered OK at least once, so the
// measured phase starts with every decode queue and mesh live.
func warmUp(clients []*serve.Client, gen *generated) error {
	for _, d := range serveDistances {
		ok := false
		for i := 0; i < warmPerDistance; i++ {
			c := clients[i%len(clients)]
			resp, err := c.Do(&serve.Request{D: d, EType: lattice.ZErrors, Syndrome: gen.syns[d][i]})
			if err != nil {
				return fmt.Errorf("warm-up d=%d: %w", d, err)
			}
			ok = ok || resp.Status == serve.StatusOK
		}
		if !ok {
			return fmt.Errorf("warm-up d=%d: no OK response", d)
		}
	}
	return nil
}

// setupServe starts a server, waits for health, dials and warms up. It
// returns the live server and clients with the set-up's duration.
func setupServe(bin, dir string, n int, traced bool, gen *generated) (*server, []*serve.Client, time.Duration, error) {
	start := time.Now()
	srv, err := startServer(bin, dir, n, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	clients, err := dialAll(srv.tcp)
	if err == nil {
		err = warmUp(clients, gen)
	}
	if err != nil {
		closeAll(clients)
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, clients, time.Since(start), nil
}

// serverSnap is the server-side state read around a phase.
type serverSnap struct {
	prom promSnap
	mem  memStats
	cpu  time.Duration
}

func (s *server) snap() (serverSnap, error) {
	var sn serverSnap
	var err error
	if sn.prom, err = scrapeProm(s.http); err != nil {
		return sn, err
	}
	if sn.mem, err = scrapeMemStats(s.http); err != nil {
		return sn, err
	}
	sn.cpu, err = procCPU(s.cmd.Process.Pid)
	return sn, err
}

// setTimerSlack sets the calling thread's timer slack in ns (Linux
// PR_SET_TIMERSLACK); the default 50 µs would add to every pacer sleep.
func setTimerSlack(ns uintptr) {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}
