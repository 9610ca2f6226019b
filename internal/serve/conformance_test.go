package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/sfq"
)

// confTrials scales the deterministic conformance workloads down for
// -short and the ci.sh race pass.
func confTrials(full, short int) int {
	if testing.Short() || knob.Bool("REPRO_MC_SHORT") {
		return short
	}
	return full
}

// confSyndromes draws a deterministic syndrome workload for (d, e):
// random densities bracketed by the two degenerate cases (empty and
// all-hot) that exercise lane refill and drain paths.
func confSyndromes(d int, e lattice.ErrorType, n int) [][]bool {
	g := lattice.MustNew(d).MatchingGraph(e)
	id := mc.DeriveID(uint64(d), uint64(e), 0x5e4e)
	syns := make([][]bool, n)
	for t := range syns {
		rng := mc.NewRand(41, id, int64(t))
		syn := make([]bool, g.NumChecks())
		switch t {
		case 0: // empty: the zero-cycle fast path
		case 1: // all hot: maximum contention
			for i := range syn {
				syn[i] = true
			}
		default:
			p := 0.02 + 0.3*rng.Float64()
			for i := range syn {
				syn[i] = rng.Float64() < p
			}
		}
		syns[t] = syn
	}
	return syns
}

// refDecode produces the ground truth for one syndrome: a lone
// sfq.Mesh's correction and cycle count. Every lane count of the batch
// kernel is pinned bit-identical to the reference model by the sfq
// conformance suite; here
// we pin that the service's multiplexing — coalescing, lane refill,
// response routing — preserves that identity end to end over the wire.
func refDecode(t *testing.T, m *sfq.Mesh, g *lattice.Graph, syn []bool) ([]int32, uint32) {
	t.Helper()
	c, st, err := m.DecodeWithStats(syn)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]int32, len(c.Qubits))
	for i, q := range c.Qubits {
		qs[i] = int32(q)
	}
	return qs, uint32(st.Cycles)
}

// TestWireConformance drives every design variant through the framed
// protocol at several batch widths with concurrent pipelined clients,
// and requires responses bit-identical — qubit-for-qubit, cycle count
// included — to direct scalar decodes of the same syndromes.
func TestWireConformance(t *testing.T) {
	variants := []sfq.Variant{sfq.Baseline, sfq.WithReset, sfq.WithBoundary, sfq.Final}
	lanesSweep := []int{0, 1, 2} // 0 = pooled maximum width
	trials := confTrials(32, 10)
	const clients = 3

	for _, v := range variants {
		for _, lanes := range lanesSweep {
			t.Run(fmt.Sprintf("%s/lanes=%d", v.Name(), lanes), func(t *testing.T) {
				pool := sfq.NewPool(v)
				s := New(Config{
					Variant:   v,
					Distances: []int{3, 5},
					Lanes:     lanes,
					Window:    8,
					Pool:      pool,
					Registry:  obs.NewRegistry(),
				})
				defer s.Close()

				for _, d := range []int{3, 5} {
					for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
						g := pool.Graph(d, e)
						ref := sfq.New(g, v)
						syns := confSyndromes(d, e, trials)

						var wg sync.WaitGroup
						for cl := 0; cl < clients; cl++ {
							wg.Add(1)
							go func(cl int) {
								defer wg.Done()
								cliEnd, srvEnd := net.Pipe()
								go s.ServeConn(srvEnd)
								c := NewClient(cliEnd)
								defer c.Close()
								type sent struct {
									trial int
									ch    <-chan *Response
								}
								var pending []sent
								for trial := cl; trial < len(syns); trial += clients {
									ch, err := c.Send(&Request{D: d, EType: e, Syndrome: syns[trial]})
									if err != nil {
										t.Errorf("send trial %d: %v", trial, err)
										return
									}
									pending = append(pending, sent{trial, ch})
								}
								for _, p := range pending {
									resp, ok := <-p.ch
									if !ok {
										t.Errorf("trial %d: stream died: %v", p.trial, c.Err())
										return
									}
									if resp.Status != StatusOK {
										t.Errorf("trial %d: status %v (%s)", p.trial, resp.Status, resp.Msg)
										continue
									}
									// The reference mesh is shared across client
									// goroutines; serialize its use.
									refMu.Lock()
									wantQ, wantCycles := refDecode(t, ref, g, syns[p.trial])
									refMu.Unlock()
									if resp.Cycles != wantCycles {
										t.Errorf("d=%d e=%d trial %d: %d cycles, scalar took %d",
											d, e, p.trial, resp.Cycles, wantCycles)
									}
									if len(resp.Qubits) != len(wantQ) {
										t.Errorf("d=%d e=%d trial %d: %d qubits, want %d",
											d, e, p.trial, len(resp.Qubits), len(wantQ))
										continue
									}
									for j := range wantQ {
										if resp.Qubits[j] != wantQ[j] {
											t.Errorf("d=%d e=%d trial %d qubit %d: %d, want %d",
												d, e, p.trial, j, resp.Qubits[j], wantQ[j])
											break
										}
									}
								}
							}(cl)
						}
						wg.Wait()
					}
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if st := pool.Stats(); st.Outstanding != 0 || st.DoublePuts != 0 || st.Foreign != 0 {
					t.Errorf("pool accounting after close: %+v", st)
				}
			})
		}
	}
}

var refMu sync.Mutex

// TestHTTPBodyBound pins the /decode body bound: a JSON body longer than
// MaxFramePayload is refused with 413 before the decoder reads past the
// bound, and the server keeps serving.
func TestHTTPBodyBound(t *testing.T) {
	s := New(Config{Variant: sfq.Final, Distances: []int{3}, Registry: obs.NewRegistry()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	var big bytes.Buffer
	big.WriteString(`{"id":1,"d":3,"etype":"z","hot":[`)
	for big.Len() <= MaxFramePayload {
		big.WriteString("0,")
	}
	big.WriteString("0]}")
	resp, err := http.Post(ts.URL+"/decode", "application/json", &big)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-bound body: HTTP %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/decode", "application/json",
		strings.NewReader(`{"id":2,"d":3,"etype":"z","hot":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr httpResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || hr.Status != "ok" || hr.ID != 2 {
		t.Fatalf("decode after the refused body: HTTP %d, %+v", resp.StatusCode, hr)
	}
}

// TestHTTPConformance pins the JSON path against the same scalar
// ground truth, plus the endpoint's rejection behavior.
func TestHTTPConformance(t *testing.T) {
	v := sfq.Final
	pool := sfq.NewPool(v)
	s := New(Config{Variant: v, Distances: []int{3}, Pool: pool, Registry: obs.NewRegistry()})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	g := pool.Graph(3, lattice.ZErrors)
	ref := sfq.New(g, v)
	syns := confSyndromes(3, lattice.ZErrors, confTrials(16, 6))

	post := func(body any) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/decode", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(resp.Body)
		return resp, out.Bytes()
	}

	for trial, syn := range syns {
		var hot []int
		for i, h := range syn {
			if h {
				hot = append(hot, i)
			}
		}
		resp, body := post(map[string]any{"id": trial, "d": 3, "etype": "z", "hot": hot})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trial %d: HTTP %d: %s", trial, resp.StatusCode, body)
		}
		var hr httpResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatalf("trial %d: %v in %s", trial, err, body)
		}
		wantQ, wantCycles := refDecode(t, ref, g, syn)
		if hr.Status != "ok" || hr.Cycles != wantCycles || len(hr.Qubits) != len(wantQ) {
			t.Fatalf("trial %d: got %+v, want %d qubits in %d cycles", trial, hr, len(wantQ), wantCycles)
		}
		for j := range wantQ {
			if hr.Qubits[j] != wantQ[j] {
				t.Fatalf("trial %d qubit %d: %d, want %d", trial, j, hr.Qubits[j], wantQ[j])
			}
		}
	}

	for name, body := range map[string]any{
		"bad distance": map[string]any{"d": 4, "etype": "z"},
		"bad etype":    map[string]any{"d": 3, "etype": "y"},
		"bad hot":      map[string]any{"d": 3, "etype": "z", "hot": []int{9999}},
	} {
		if resp, _ := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, resp.StatusCode)
		}
	}

	// The telemetry surface rides the same handler.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !bytes.Contains(mb.Bytes(), []byte("serve_ok_total")) {
		t.Errorf("/metrics does not expose serve_ok_total:\n%s", mb.Bytes())
	}
}
