package main

import (
	"bufio"
	"context"
	"net"
	"testing"
	"time"

	"repro/internal/serve"
)

func synKey(d int, syn []bool) string {
	b := []byte{byte(d)}
	for _, hot := range syn {
		if hot {
			b = append(b, '1')
		} else {
			b = append(b, '0')
		}
	}
	return string(b)
}

// fakeServer answers framed decode requests with the reference answer.
// tamper sees frame i's request and response before the response is
// sent and may change it, or return false to drop it.
func fakeServer(nc net.Conn, gen *generated, tamper func(i int, req *serve.Request, resp *serve.Response) bool) {
	defer nc.Close()
	want := map[string]expected{}
	for d, syns := range gen.syns {
		for i, syn := range syns {
			want[synKey(d, syn)] = gen.want[d][i]
		}
	}
	br := bufio.NewReader(nc)
	var buf []byte
	for i := 0; ; i++ {
		_, payload, err := serve.ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = payload
		var req serve.Request
		if err := serve.ParseRequest(payload, &req); err != nil {
			return
		}
		w := want[synKey(req.D, req.Syndrome)]
		resp := &serve.Response{ID: req.ID, Status: serve.StatusOK, Cycles: w.cycles,
			Qubits: append([]int32(nil), w.qubits...)}
		if !tamper(i, &req, resp) {
			continue
		}
		out, err := serve.AppendResponse(nil, resp)
		if err != nil {
			return
		}
		if _, err := nc.Write(out); err != nil {
			return
		}
	}
}

// driveFake plays a short open-loop schedule against a fake server.
func driveFake(t *testing.T, gen *generated, tamper func(int, *serve.Request, *serve.Response) bool) outcomeCounts {
	t.Helper()
	cliConn, srvConn := net.Pipe()
	go fakeServer(srvConn, gen, tamper)
	c := serve.NewClient(cliConn)
	defer c.Close()
	res := drive([]*serve.Client{c}, gen, gen.arrivals, 2, 300*time.Millisecond)
	return res.counts()
}

// The output checks must catch a single flipped correction qubit and a
// single missing response, and pass an honest server.
func TestChecksCatchWrongAndMissingResponses(t *testing.T) {
	gen, err := generate("serve_open", traffic{baseRate: 20000}, 1, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.arrivals) < 100 {
		t.Fatalf("only %d arrivals", len(gen.arrivals))
	}
	const victim = 17

	c := driveFake(t, gen, func(int, *serve.Request, *serve.Response) bool { return true })
	if c.OK != c.Sent || c.broken() {
		t.Errorf("honest server: %+v", c)
	}

	c = driveFake(t, gen, func(i int, _ *serve.Request, r *serve.Response) bool {
		if i == victim {
			if len(r.Qubits) > 0 {
				r.Qubits[0] ^= 1
			} else {
				r.Qubits = []int32{0}
			}
		}
		return true
	})
	if c.Wrong != 1 || c.OK != c.Sent-1 || !c.broken() || c.failed() != 1 {
		t.Errorf("flipped qubit: %+v, want exactly one wrong", c)
	}

	c = driveFake(t, gen, func(i int, _ *serve.Request, _ *serve.Response) bool { return i != victim })
	if c.Timeout != 1 || c.OK != c.Sent-1 || !c.broken() || c.failed() != 1 {
		t.Errorf("missing response: %+v, want exactly one timeout", c)
	}
}

// A shed request is re-sent: it counts as OK when a retry is answered,
// and as one failed (shed) request when every attempt is shed.
func TestShedRequestsAreRetried(t *testing.T) {
	gen, err := generate("serve_open", traffic{baseRate: 20000}, 1, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	const victim = 17
	shed := func(r *serve.Response) { r.Status, r.Qubits, r.Cycles = serve.StatusShed, nil, 0 }

	c := driveFake(t, gen, func(i int, _ *serve.Request, r *serve.Response) bool {
		if i == victim {
			shed(r)
		}
		return true
	})
	if c.OK != c.Sent || c.Retries != 1 || c.failed() != 0 || c.broken() {
		t.Errorf("one shed attempt: %+v, want every request OK after one retry", c)
	}

	a := gen.arrivals[victim]
	key := synKey(a.d, gen.syns[a.d][a.syn])
	n := 0
	for _, x := range gen.arrivals {
		if x.d == a.d && x.syn == a.syn {
			n++
		}
	}
	c = driveFake(t, gen, func(_ int, q *serve.Request, r *serve.Response) bool {
		if synKey(q.D, q.Syndrome) == key {
			shed(r)
		}
		return true
	})
	if c.Shed != n || c.Retries != 2*n || c.failed() != n || c.broken() {
		t.Errorf("always shed: %+v, want %d shed after 2 retries each", c, n)
	}
}

// The fixed-seed sweeps must reproduce their goldens, the run's seed
// must give identical tallies through both kernel shapes, and a changed
// tally must be reported.
func TestMCChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden sweeps")
	}
	ctx := context.Background()
	for _, name := range []string{"mc_batch", "mc_twolevel"} {
		rig, _, err := mcSetup(ctx, mcWorkloads[name], 5)
		if err != nil {
			t.Fatal(err)
		}
		bad, notes, err := rig.checks(ctx)
		if err != nil || bad != 0 {
			t.Errorf("%s: checks failed: %v %v", name, err, notes)
		}
	}
	saved := mcGolden["mc_batch"]
	defer func() { mcGolden["mc_batch"] = saved }()
	mcGolden["mc_batch"] = []int{saved[0] + 1, saved[1], saved[2]}
	rig, _, err := mcSetup(ctx, mcWorkloads["mc_batch"], 5)
	if err != nil {
		t.Fatal(err)
	}
	if bad, notes, err := rig.checks(ctx); err != nil || bad != goldenTrials || len(notes) != 1 {
		t.Errorf("changed golden: %d bad trials, notes %v, err %v; want one failed point", bad, notes, err)
	}
}
