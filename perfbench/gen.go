package main

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/pauli"
	"repro/internal/sfq"
)

// serveDistances are the code distances the serve workloads request,
// in equal shares; the server is started with exactly these.
var serveDistances = []int{5, 9, 13}

const (
	// serveP is the dephasing rate the request syndromes are sampled at.
	serveP = 0.05
	// synPerDistance is the distinct-syndrome working set per distance.
	// The server keeps no per-syndrome state, so a set this size already
	// exercises every decode path a fresh syndrome per request would.
	synPerDistance = 1024
)

// traffic is the arrival process of one serve workload: Poisson
// arrivals at baseRate, raised to burstRate inside a burstLen window
// that opens burstAt into every burstEvery period.
type traffic struct {
	baseRate   float64
	burstRate  float64
	burstEvery time.Duration
	burstAt    time.Duration
	burstLen   time.Duration
}

// rateAt is the arrival rate in effect at t (ns since the schedule start).
func (tr traffic) rateAt(t int64) float64 {
	if tr.burstRate == 0 {
		return tr.baseRate
	}
	o := t % int64(tr.burstEvery)
	if o >= int64(tr.burstAt) && o < int64(tr.burstAt+tr.burstLen) {
		return tr.burstRate
	}
	return tr.baseRate
}

// nextEdge is the first rate change strictly after t, or −1 for none.
func (tr traffic) nextEdge(t int64) int64 {
	if tr.burstRate == 0 {
		return -1
	}
	period := int64(tr.burstEvery)
	base := t - t%period
	for _, e := range []int64{
		base + int64(tr.burstAt),
		base + int64(tr.burstAt+tr.burstLen),
		base + period + int64(tr.burstAt),
	} {
		if e > t {
			return e
		}
	}
	return -1
}

// arrival is one scheduled request.
type arrival struct {
	at  time.Duration // send time, from the schedule start
	d   int           // code distance
	syn int           // index into the distance's syndrome set
}

// streamID keys a workload's random streams by its name, so different
// workloads with the same seed draw different streams.
func streamID(workload string, part uint64) int64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return mc.DeriveID(h.Sum64(), part)
}

// schedule draws the arrival stream of one workload: a pure function of
// (workload, traffic, seed, span). Gaps are exponential at the rate in
// effect; at a rate change the draw restarts from the edge, which is
// exact for a Poisson process because it is memoryless.
func schedule(workload string, tr traffic, seed int64, span time.Duration) []arrival {
	rng := mc.NewRand(seed, streamID(workload, 1), 0)
	var out []arrival
	t := int64(0)
	for {
		next := t + int64(rng.ExpFloat64()/tr.rateAt(t)*1e9)
		if e := tr.nextEdge(t); e >= 0 && next > e {
			t = e
			continue
		}
		t = next
		if t >= int64(span) {
			return out
		}
		out = append(out, arrival{
			at:  time.Duration(t),
			d:   serveDistances[rng.Intn(len(serveDistances))],
			syn: rng.Intn(synPerDistance),
		})
	}
}

// syndromeSet samples n dephasing syndromes for distance d: each is the
// X-check syndrome of a fresh frame hit by the channel, drawn from its
// own counter-based stream of (workload, seed, d, i).
func syndromeSet(workload string, seed int64, d, n int) ([][]bool, error) {
	l, err := lattice.New(d)
	if err != nil {
		return nil, err
	}
	ch, err := noise.NewDephasing(serveP)
	if err != nil {
		return nil, err
	}
	g := l.MatchingGraph(lattice.ZErrors)
	var data []int
	for _, s := range l.DataSites() {
		data = append(data, l.QubitIndex(s))
	}
	id := streamID(workload, 2+uint64(d))
	out := make([][]bool, n)
	f := pauli.NewFrame(l.NumQubits())
	for i := range out {
		f.Clear()
		ch.Sample(mc.NewRand(seed, id, int64(i)), f, data)
		out[i] = g.Syndrome(f)
	}
	return out, nil
}

// expected is the reference answer for one syndrome: the scalar mesh's
// correction (ascending qubit indices) and its cycle count. The server
// returns the level-1 mesh correction even when it escalates, and its
// batch kernel is conformance-pinned to the scalar one, so every OK
// response must match exactly.
type expected struct {
	qubits []int32
	cycles uint32
}

// generated is one serve workload's complete input: the schedule plus
// per-distance syndromes and their reference answers.
type generated struct {
	arrivals []arrival
	syns     map[int][][]bool
	want     map[int][]expected
}

// generate builds a serve workload's inputs from (workload, seed) alone.
func generate(workload string, tr traffic, seed int64, span time.Duration) (*generated, error) {
	gen := &generated{
		arrivals: schedule(workload, tr, seed, span),
		syns:     map[int][][]bool{},
		want:     map[int][]expected{},
	}
	for _, d := range serveDistances {
		syns, err := syndromeSet(workload, seed, d, synPerDistance)
		if err != nil {
			return nil, err
		}
		m := sfq.New(lattice.MustNew(d).MatchingGraph(lattice.ZErrors), sfq.Final)
		want := make([]expected, len(syns))
		for i, syn := range syns {
			c, st, err := m.DecodeWithStats(syn)
			if err != nil {
				return nil, fmt.Errorf("reference decode d=%d syndrome %d: %w", d, i, err)
			}
			want[i] = expected{qubits: sortedQubits(c.Qubits), cycles: uint32(st.Cycles)}
		}
		gen.syns[d], gen.want[d] = syns, want
	}
	return gen, nil
}

// sortedQubits returns the correction's qubits as ascending int32s.
func sortedQubits[T int | int32](qs []T) []int32 {
	out := make([]int32, len(qs))
	for i, q := range qs {
		out[i] = int32(q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
