package sfq_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/decodepool"
	"repro/internal/lattice"
	"repro/internal/pauli"
	"repro/internal/sfq"
	"repro/internal/sfq/oracle"
)

// The conformance suite pins the production kernel bit-identical to the
// reference model in internal/sfq/oracle: same correction qubits and
// same Stats for every syndrome, across variants, error types, lane
// counts from 1 (sfq.Mesh) to the maximum, the spanning layout (side >
// 64), and the decode orders dynamic lane refill induces. Every mesh is
// reused across its whole syndrome set, so state leaking between
// decodes diverges too.

var variants = []sfq.Variant{sfq.Baseline, sfq.WithReset, sfq.WithBoundary, sfq.Final}

// want is the oracle's decode of one syndrome.
type want struct {
	q  []int
	st sfq.Stats
}

// oracleDecode runs every syndrome through a fresh reference mesh.
func oracleDecode(t testing.TB, g *lattice.Graph, v sfq.Variant, maxCycles int, syns [][]bool) []want {
	t.Helper()
	o := oracle.New(g, v)
	if maxCycles > 0 {
		o.MaxCycles = maxCycles
	}
	wants := make([]want, len(syns))
	for i, syn := range syns {
		q, st, err := o.Decode(syn, nil)
		if err != nil {
			t.Fatalf("oracle decode %d: %v", i, err)
		}
		wants[i] = want{q, st}
	}
	return wants
}

// assertMesh decodes each syndrome through the one-lane Mesh and fails
// on any divergence from the oracle.
func assertMesh(t testing.TB, m *sfq.Mesh, syns [][]bool, wants []want, desc string) {
	t.Helper()
	for i, syn := range syns {
		c, st, err := m.DecodeWithStats(syn)
		if err != nil {
			t.Fatalf("%s: mesh decode %d: %v", desc, i, err)
		}
		if !slices.Equal(c.Qubits, wants[i].q) {
			t.Fatalf("%s: syndrome %d corrections diverge:\noracle %v\nmesh   %v", desc, i, wants[i].q, c.Qubits)
		}
		if st != wants[i].st || m.Stats() != st {
			t.Fatalf("%s: syndrome %d stats diverge:\noracle %+v\nmesh   %+v", desc, i, wants[i].st, st)
		}
	}
}

// assertBatch decodes all syndromes in one DecodeBatchInto and fails on
// any divergence from the oracle in corrections or per-lane Stats.
func assertBatch(t testing.TB, g *lattice.Graph, b *sfq.BatchMesh, s *decodepool.Scratch, syns [][]bool, wants []want, desc string) {
	t.Helper()
	corr, err := b.DecodeBatchInto(g, syns, s)
	if err != nil {
		t.Fatalf("%s: batch decode: %v", desc, err)
	}
	if len(corr) != len(syns) {
		t.Fatalf("%s: got %d corrections for %d syndromes", desc, len(corr), len(syns))
	}
	for i := range syns {
		if !slices.Equal(corr[i].Qubits, wants[i].q) {
			t.Fatalf("%s: syndrome %d corrections diverge:\noracle %v\nbatch  %v", desc, i, wants[i].q, corr[i].Qubits)
		}
		if st := b.LaneStats(i); st != wants[i].st {
			t.Fatalf("%s: syndrome %d stats diverge:\noracle %+v\nbatch  %+v", desc, i, wants[i].st, st)
		}
	}
}

// laneCounts lists the lane counts a distance is checked at: every
// count from 1 to the maximum, or in short mode one lane, two (the first
// lane seam) and the maximum.
func laneCounts(d int) []int {
	max := sfq.MaxBatchLanes(d)
	if testing.Short() {
		return slices.Compact([]int{1, min(2, max), max})
	}
	counts := make([]int, max)
	for i := range counts {
		counts[i] = i + 1
	}
	return counts
}

// errorSyndrome computes the syndrome of a Z- or X-error pattern on the
// given data qubits.
func errorSyndrome(l *lattice.Lattice, g *lattice.Graph, f *pauli.Frame, qubits ...int) []bool {
	f.Clear()
	op := pauli.Z
	if g.ErrorType() == lattice.XErrors {
		op = pauli.X
	}
	for _, q := range qubits {
		f.Apply(q, op)
	}
	return g.Syndrome(f)
}

// randomSyndromes draws raw syndromes with each check hot independently
// at rate p, reaching states — odd parity, dense stall patterns — that
// error-derived syndromes rarely produce.
func randomSyndromes(rng *rand.Rand, g *lattice.Graph, p float64, n int) [][]bool {
	syns := make([][]bool, n)
	for i := range syns {
		syns[i] = make([]bool, g.NumChecks())
		for j := range syns[i] {
			syns[i][j] = rng.Float64() < p
		}
	}
	return syns
}

// TestBatchMeshConformanceLowWeight checks every weight-≤2 error
// pattern: all variants and both error types at d ∈ {3, 5}, the final
// variant at d ∈ {7, 9}. Each set decodes as one large batch, so lane
// refill is heavy.
func TestBatchMeshConformanceLowWeight(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		vs := variants
		etypes := []lattice.ErrorType{lattice.ZErrors, lattice.XErrors}
		if d >= 7 {
			if testing.Short() {
				continue
			}
			vs = []sfq.Variant{sfq.Final}
			etypes = etypes[:1]
		}
		l := lattice.MustNew(d)
		var qubits []int
		for _, site := range l.DataSites() {
			qubits = append(qubits, l.QubitIndex(site))
		}
		for _, etype := range etypes {
			g := l.MatchingGraph(etype)
			f := pauli.NewFrame(l.NumQubits())
			syns := [][]bool{errorSyndrome(l, g, f)}
			for i, qi := range qubits {
				syns = append(syns, errorSyndrome(l, g, f, qi))
				for _, qj := range qubits[i+1:] {
					syns = append(syns, errorSyndrome(l, g, f, qi, qj))
				}
			}
			for _, v := range vs {
				desc := fmt.Sprintf("d=%d %v %s", d, etype, v.Name())
				wants := oracleDecode(t, g, v, 0, syns)
				assertMesh(t, sfq.New(g, v), syns, wants, desc+" mesh")
				b := sfq.NewBatch(g, v)
				assertBatch(t, g, b, decodepool.NewScratch(), syns, wants, fmt.Sprintf("%s lanes=%d", desc, b.Lanes()))
			}
		}
	}
}

// randomCases draws the seeded raw-syndrome set of one (distance,
// error type): perRate syndromes at each rate.
func randomCases(g *lattice.Graph, rates []float64, perRate int) [][]bool {
	rng := rand.New(rand.NewSource(int64(9000*g.Lattice().Distance()) + int64(g.ErrorType())))
	var syns [][]bool
	for _, p := range rates {
		syns = append(syns, randomSyndromes(rng, g, p, perRate)...)
	}
	return syns
}

// TestBatchMeshConformanceRandom drives every variant and both error
// types over seeded random raw syndromes through the one-lane Mesh and
// a full-width batch at d ∈ {3, 5, 7, 9, 13, 33}. d = 33 (side 67) is
// the spanning layout: one lane over two words per row.
func TestBatchMeshConformanceRandom(t *testing.T) {
	perRate := 12
	if testing.Short() {
		perRate = 3
	}
	for _, d := range []int{3, 5, 7, 9, 13, 33} {
		rates, n := []float64{0.02, 0.08, 0.2}, perRate
		if d == 33 {
			// The oracle steps 4489 cells one at a time; keep the
			// spanning layout's set small and sparse.
			rates, n = []float64{0.005, 0.02, 0.05}, 2
			if testing.Short() {
				n = 1
			}
		}
		l := lattice.MustNew(d)
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(etype)
			syns := randomCases(g, rates, n)
			for _, v := range variants {
				desc := fmt.Sprintf("d=%d %v %s", d, etype, v.Name())
				wants := oracleDecode(t, g, v, 0, syns)
				assertMesh(t, sfq.New(g, v), syns, wants, desc+" mesh")
				b := sfq.NewBatch(g, v)
				if d == 33 && b.Lanes() != 1 {
					t.Fatalf("%s: spanning layout has %d lanes, want 1", desc, b.Lanes())
				}
				assertBatch(t, g, b, decodepool.NewScratch(), syns, wants, fmt.Sprintf("%s lanes=%d", desc, b.Lanes()))
			}
		}
	}
}

// TestBatchMeshWidthConformance runs the random sets of d ≤ 13 through
// a batch at every lane count from 1 to the maximum — full and partly
// filled words, and the lane refill orders each count induces.
func TestBatchMeshWidthConformance(t *testing.T) {
	perRate := 12
	if testing.Short() {
		perRate = 3
	}
	for _, d := range []int{3, 5, 7, 9, 13} {
		l := lattice.MustNew(d)
		for _, etype := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			g := l.MatchingGraph(etype)
			syns := randomCases(g, []float64{0.02, 0.08, 0.2}, perRate)
			for _, v := range variants {
				wants := oracleDecode(t, g, v, 0, syns)
				s := decodepool.NewScratch()
				for _, lanes := range laneCounts(d) {
					b := sfq.NewBatchWithLanes(g, v, lanes)
					if b.Lanes() != lanes {
						t.Fatalf("d=%d: NewBatchWithLanes(%d) built %d lanes", d, lanes, b.Lanes())
					}
					assertBatch(t, g, b, s, syns, wants,
						fmt.Sprintf("d=%d %v %s lanes=%d", d, etype, v.Name(), lanes))
				}
			}
		}
	}
}

// TestBatchMeshSingleDecodeAdapters checks the decoder.Decoder and
// IntoDecoder faces of BatchMesh against the oracle, including Stats of
// the last single decode.
func TestBatchMeshSingleDecodeAdapters(t *testing.T) {
	g := lattice.MustNew(7).MatchingGraph(lattice.ZErrors)
	batch := sfq.NewBatch(g, sfq.Final)
	s := decodepool.NewScratch()
	rng := rand.New(rand.NewSource(23))
	var syns [][]bool
	for _, p := range []float64{0, 0.05, 0.25} {
		syns = append(syns, randomSyndromes(rng, g, p, 30)...)
	}
	wants := oracleDecode(t, g, sfq.Final, 0, syns)
	for i, syn := range syns {
		got, err := batch.DecodeInto(g, syn, s)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Qubits, wants[i].q) {
			t.Fatalf("syndrome %d: DecodeInto %v != oracle %v", i, got.Qubits, wants[i].q)
		}
		if batch.Stats() != wants[i].st {
			t.Fatalf("syndrome %d: stats %+v != oracle %+v", i, batch.Stats(), wants[i].st)
		}
		got2, err := batch.Decode(g, syn)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got2.Qubits, wants[i].q) {
			t.Fatalf("syndrome %d: Decode %v != oracle %v", i, got2.Qubits, wants[i].q)
		}
	}
}

// fuzzDists are the distances the fuzz targets draw from; fuzzGraphs
// builds their Z-error matching graphs once per target.
var fuzzDists = []int{3, 5, 7, 9}

func fuzzGraphs() map[int]*lattice.Graph {
	graphs := map[int]*lattice.Graph{}
	for _, d := range fuzzDists {
		graphs[d] = lattice.MustNew(d).MatchingGraph(lattice.ZErrors)
	}
	return graphs
}

// fuzzSyndromes slices the fuzz bytes into n syndromes, one byte per 8
// checks, cycling through the input with a shifting offset so
// consecutive syndromes see distinct patterns.
func fuzzSyndromes(g *lattice.Graph, synBytes []byte, n int) [][]bool {
	nc := g.NumChecks()
	syns := make([][]bool, n)
	for k := range syns {
		syns[k] = make([]bool, nc)
		if len(synBytes) == 0 {
			continue
		}
		for i := 0; i < nc; i++ {
			b := synBytes[(i/8+k)%len(synBytes)]
			syns[k][i] = b>>(i%8)&1 == 1
		}
	}
	return syns
}

// fuzzCheck decodes syndromes built from the fuzz bytes through the
// reused one-lane Mesh and through batch b (more syndromes than lanes,
// so lanes refill) and fails on any divergence from the oracle.
func fuzzCheck(t *testing.T, g *lattice.Graph, v sfq.Variant, b *sfq.BatchMesh, synBytes []byte) {
	syns := fuzzSyndromes(g, synBytes, 2*b.Lanes()+1)
	wants := oracleDecode(t, g, v, 0, syns)
	desc := fmt.Sprintf("fuzz d=%d v=%s lanes=%d", g.Lattice().Distance(), v.Name(), b.Lanes())
	assertMesh(t, sfq.New(g, v), syns, wants, desc+" mesh")
	assertBatch(t, g, b, decodepool.NewScratch(), syns, wants, desc)
}

// fuzzLanes is the body of FuzzMesh and FuzzBatchMesh: a fuzzer-chosen
// (distance, variant, lane count, syndromes) tuple. Lane counts run from
// 1 to MaxBatchLanes(d).
func fuzzLanes(graphs map[int]*lattice.Graph) func(*testing.T, uint8, uint8, uint8, []byte) {
	return func(t *testing.T, dSel, vSel, lSel uint8, synBytes []byte) {
		d := fuzzDists[int(dSel)%len(fuzzDists)]
		g := graphs[d]
		v := variants[vSel%4]
		lanes := 1 + int(lSel)%sfq.MaxBatchLanes(d)
		fuzzCheck(t, g, v, sfq.NewBatchWithLanes(g, v, lanes), synBytes)
	}
}

// FuzzMesh cross-checks the one-lane Mesh and a batch of fuzzer-chosen
// lane count against the oracle. It is the sfq target ci.sh fuzzes.
func FuzzMesh(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(0), []byte{0x01})
	f.Add(uint8(1), uint8(0), uint8(9), []byte{0xff, 0x10, 0x00, 0x42})
	f.Add(uint8(2), uint8(2), uint8(4), []byte{0x03, 0x00, 0x81, 0xaa, 0x55})
	f.Add(uint8(3), uint8(1), uint8(11), []byte{0xaa, 0x55, 0xaa, 0x55, 0x0f, 0xf0})
	f.Fuzz(fuzzLanes(fuzzGraphs()))
}

// FuzzBatchMesh is FuzzMesh's check over its own seed corpus.
func FuzzBatchMesh(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(2), []byte{0x01, 0x80, 0x03})
	f.Add(uint8(1), uint8(0), uint8(0), []byte{0xff, 0x10, 0x00, 0x42})
	f.Add(uint8(2), uint8(2), uint8(1), []byte{0x03, 0x00, 0x81, 0xaa, 0x55})
	f.Add(uint8(3), uint8(1), uint8(7), []byte{0xaa, 0x55, 0xaa, 0x55, 0x0f, 0xf0})
	f.Fuzz(fuzzLanes(fuzzGraphs()))
}
