// Package rotated implements the rotated planar surface code — the
// qubit-efficient layout (d² data qubits instead of d²+(d−1)²) that
// production proposals favor — as an extension beyond the paper, which
// evaluates the unrotated layout its per-qubit SFQ mesh is wired for.
//
// The code lives on a d×d grid of data qubits. Weight-4 stabilizers sit
// on the faces of the grid in a checkerboard pattern and weight-2
// stabilizers on alternating boundary edges: Z-type faces detect X
// errors and X-type faces detect Z errors. The package provides the
// geometry, syndrome extraction, greedy and exact matching decoders
// (the rotated metric and chains on match.Boundary), and a lifetime
// simulator, so the efficiency of the two layouts can be compared head
// to head (cmd/rotated).
package rotated

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/match"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/pauli"
)

// Code is the distance-d rotated planar surface code.
type Code struct {
	d int
	// checks[i] lists the data qubits of X-check i (X-type stabilizers
	// detect Z errors; the dephasing evaluation needs only this plane).
	checks [][]int
	// pos[i] is the face coordinate of check i, in half-step units.
	pos [][2]int
	// logicalZ is a representative logical-Z support (a row of data
	// qubits crossing between the two X-type boundaries).
	logicalZ []int
	// cut is the logical-X support; odd overlap with a Z-residual marks
	// a logical phase flip.
	cut []int
}

// New builds the distance-d rotated code. Distance must be odd, >= 3.
func New(d int) (*Code, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("rotated: distance must be odd and >= 3, got %d", d)
	}
	c := &Code{d: d}
	q := func(r, col int) int { return r*d + col }
	// Bulk faces: (r, col) indexes the face whose corners are
	// (r,col),(r,col+1),(r+1,col),(r+1,col+1). X-type faces are those
	// with (r+col) odd (one consistent checkerboard convention).
	for r := 0; r < d-1; r++ {
		for col := 0; col < d-1; col++ {
			if (r+col)%2 == 1 {
				c.checks = append(c.checks, []int{q(r, col), q(r, col+1), q(r+1, col), q(r+1, col+1)})
				c.pos = append(c.pos, [2]int{2*r + 1, 2*col + 1})
			}
		}
	}
	// Boundary weight-2 X-checks live on the top and bottom edges, on
	// the columns that continue the checkerboard: top edge above row 0
	// on faces with (r=-1 + col) odd → col even; bottom edge below row
	// d-1 on faces with (r=d-1 + col) odd.
	for col := 0; col < d-1; col++ {
		if col%2 == 0 {
			c.checks = append(c.checks, []int{q(0, col), q(0, col+1)})
			c.pos = append(c.pos, [2]int{-1, 2*col + 1})
		}
		if (d-1+col)%2 == 1 {
			c.checks = append(c.checks, []int{q(d-1, col), q(d-1, col+1)})
			c.pos = append(c.pos, [2]int{2*d - 1, 2*col + 1})
		}
	}
	// Logical Z: a horizontal row of Z operators crossing left-right.
	for col := 0; col < d; col++ {
		c.logicalZ = append(c.logicalZ, q(0, col))
	}
	// Logical X: a vertical column, anticommuting with logical Z once.
	for r := 0; r < d; r++ {
		c.cut = append(c.cut, q(r, 0))
	}
	return c, nil
}

// Distance returns d.
func (c *Code) Distance() int { return c.d }

// NumData returns d².
func (c *Code) NumData() int { return c.d * c.d }

// NumChecks returns the number of X-type stabilizers, (d²−1)/2.
func (c *Code) NumChecks() int { return len(c.checks) }

// CheckSupport returns the data qubits of check i.
func (c *Code) CheckSupport(i int) []int { return c.checks[i] }

// Syndrome computes the X-check outcomes for a Z-error frame over the
// d² data qubits.
func (c *Code) Syndrome(f *pauli.Frame) ([]bool, error) {
	if f.Len() != c.NumData() {
		return nil, fmt.Errorf("rotated: frame covers %d qubits, code has %d", f.Len(), c.NumData())
	}
	syn := make([]bool, len(c.checks))
	for i, sup := range c.checks {
		syn[i] = f.ParityZ(sup) == 1
	}
	return syn, nil
}

// dist is the matching-graph distance between checks i and j: the
// minimum number of data-qubit Z errors connecting them. On the rotated
// layout checks are diagonal neighbours; in the half-step face
// coordinates that is a Chebyshev distance.
func (c *Code) dist(i, j int) int {
	dr := abs(c.pos[i][0] - c.pos[j][0])
	dc := abs(c.pos[i][1] - c.pos[j][1])
	return max(dr, dc) / 2
}

// boundaryDist is the distance from check i to the nearest X-type
// boundary (the left and right edges absorb Z-error chains).
func (c *Code) boundaryDist(i int) int {
	col := c.pos[i][1]
	left := (col + 1) / 2
	right := (2*c.d - 1 - col) / 2
	return min(left, right)
}

// pathQubits returns a minimum-length Z-error chain connecting checks
// i and j. Same-type checks are diagonal neighbours on the rotated
// lattice, so the chain walks diagonally in face coordinates — one
// shared data qubit per step — zig-zagging on the exhausted axis when
// the two displacements differ (their difference is always even).
func (c *Code) pathQubits(i, j int) []int {
	r, col := c.pos[i][0], c.pos[i][1]
	tr, tc := c.pos[j][0], c.pos[j][1]
	var qubits []int
	zig := 1
	for r != tr || col != tc {
		sr, sc := sign(tr-r), sign(tc-col)
		if sr == 0 {
			sr = zig
			if r+2*sr < -1 || r+2*sr > 2*c.d-1 {
				sr = -sr
			}
			zig = -sr
		}
		if sc == 0 {
			sc = zig
			if col+2*sc < -1 || col+2*sc > 2*c.d-1 {
				sc = -sc
			}
			zig = -sc
		}
		qubits = append(qubits, ((r+sr)/2)*c.d+(col+sc)/2)
		r += 2 * sr
		col += 2 * sc
	}
	return qubits
}

// boundaryPathQubits returns the shortest chain from check i to its
// nearest X boundary (left on ties): a horizontal run of data qubits in
// one row of the check's support, whose intermediate face flips cancel
// pairwise by the checkerboard parity.
func (c *Code) boundaryPathQubits(i int) []int {
	r, col := c.pos[i][0], c.pos[i][1]
	step := -1
	if (2*c.d-1-col)/2 < (col+1)/2 {
		step = 1
	}
	row := min(max((r+1)/2, 0), c.d-1)
	var qubits []int
	for x := col; ; x += 2 * step {
		qc := (x + step) / 2
		if qc < 0 || qc >= c.d {
			break
		}
		qubits = append(qubits, row*c.d+qc)
	}
	return qubits
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// Method selects the matching algorithm.
type Method uint8

const (
	// Greedy matches sorted candidate pairs greedily.
	Greedy Method = iota
	// Exact solves the matching optimally with the blossom algorithm.
	Exact
)

// Decode matches the hot checks of a syndrome and returns the data
// qubits to correct. The correction always reproduces the syndrome.
func (c *Code) Decode(syn []bool, m Method) ([]int, error) {
	return c.decode(syn, m, new(match.Boundary))
}

// decode is Decode on a caller-owned boundary matcher. A Code is shared
// by every Monte-Carlo shard, so each shard (or Lifetime call) owns
// one. The matching is match.Boundary's Greedy or Exact, by method.
func (c *Code) decode(syn []bool, m Method, bm *match.Boundary) ([]int, error) {
	if len(syn) != len(c.checks) {
		return nil, fmt.Errorf("rotated: syndrome has %d checks, code has %d", len(syn), len(c.checks))
	}
	var hot []int
	for i, h := range syn {
		if h {
			hot = append(hot, i)
		}
	}
	if len(hot) == 0 {
		return nil, nil
	}
	bm.Reset(len(hot))
	for u, cu := range hot {
		bm.SetBoundary(u, c.boundaryDist(cu))
		for v := u + 1; v < len(hot); v++ {
			bm.SetPair(u, v, c.dist(cu, hot[v]))
		}
	}
	var pairs [][2]int32
	var bnd []int32
	if m == Exact {
		pairs, bnd = bm.Exact()
	} else {
		pairs, bnd = bm.Greedy()
	}
	var qubits []int
	for _, p := range pairs {
		qubits = append(qubits, c.pathQubits(hot[p[0]], hot[p[1]])...)
	}
	for _, u := range bnd {
		qubits = append(qubits, c.boundaryPathQubits(hot[u])...)
	}
	return qubits, nil
}

// Result summarizes a lifetime run.
type Result struct {
	Cycles        int
	LogicalErrors int
	PL            float64
}

// Lifetime runs the dephasing memory experiment on the rotated code.
func (c *Code) Lifetime(p float64, cycles int, m Method, seed int64) (Result, error) {
	ch, err := noise.NewDephasing(p)
	if err != nil {
		return Result{}, err
	}
	rng := noise.NewRand(seed)
	res := pauli.NewFrame(c.NumData())
	targets := make([]int, c.NumData())
	for i := range targets {
		targets[i] = i
	}
	bm := new(match.Boundary)
	var out Result
	for cyc := 0; cyc < cycles; cyc++ {
		flipped, err := c.runCycle(ch, rng, res, targets, m, bm)
		if err != nil {
			return out, fmt.Errorf("%w at cycle %d", err, cyc)
		}
		if flipped {
			out.LogicalErrors++
		}
		out.Cycles++
	}
	if out.Cycles > 0 {
		out.PL = float64(out.LogicalErrors) / float64(out.Cycles)
	}
	return out, nil
}

// runCycle injects one round of errors, decodes and corrects, verifies
// the syndrome cleared, and reports whether the logical state flipped
// (normalizing the residual by the logical operator when it did).
func (c *Code) runCycle(ch noise.Dephasing, rng *rand.Rand, res *pauli.Frame, targets []int, m Method, bm *match.Boundary) (bool, error) {
	ch.Sample(rng, res, targets)
	syn, err := c.Syndrome(res)
	if err != nil {
		return false, err
	}
	corr, err := c.decode(syn, m, bm)
	if err != nil {
		return false, err
	}
	for _, q := range corr {
		res.Apply(q, pauli.Z)
	}
	left, err := c.Syndrome(res)
	if err != nil {
		return false, err
	}
	for i, hot := range left {
		if hot {
			return false, fmt.Errorf("rotated: check %d hot after correction", i)
		}
	}
	if res.ParityZ(c.cut) == 1 {
		for _, q := range c.logicalZ {
			res.Apply(q, pauli.Z)
		}
		return true, nil
	}
	return false, nil
}

// rotatedShard runs single-cycle lifetime trials on a private frame and
// matcher.
type rotatedShard struct {
	c       *Code
	ch      noise.Dephasing
	m       Method
	res     *pauli.Frame
	targets []int
	bm      match.Boundary
}

// Trial implements mc.Shard.
func (sh *rotatedShard) Trial(rng *rand.Rand, _ int) (mc.Outcome, error) {
	sh.res.Clear()
	flipped, err := sh.c.runCycle(sh.ch, rng, sh.res, sh.targets, sh.m, &sh.bm)
	if err != nil {
		return mc.Outcome{}, err
	}
	return mc.Outcome{Failed: flipped}, nil
}

// LifetimeMC runs the dephasing memory experiment on the sharded
// Monte-Carlo engine: each cycle is an independent trial whose
// randomness is a pure function of (seed, d, p, method, cycle index),
// so the result is bit-identical for any worker count.
func (c *Code) LifetimeMC(ctx context.Context, p float64, cycles int, m Method, seed int64, workers int) (Result, error) {
	ch, err := noise.NewDephasing(p)
	if err != nil {
		return Result{}, err
	}
	spec := mc.PointSpec{
		ID:     mc.DeriveID(uint64(c.d), math.Float64bits(p), uint64(m)),
		Trials: cycles,
		NewShard: func() (mc.Shard, error) {
			targets := make([]int, c.NumData())
			for i := range targets {
				targets[i] = i
			}
			return &rotatedShard{
				c: c, ch: ch, m: m,
				res: pauli.NewFrame(c.NumData()), targets: targets,
			}, nil
		},
	}
	tallies, err := mc.Run(ctx, mc.Config{RootSeed: seed, Workers: workers}, []mc.PointSpec{spec})
	if err != nil {
		return Result{}, err
	}
	t := tallies[0]
	out := Result{Cycles: t.Trials, LogicalErrors: t.Failures}
	if t.Trials > 0 {
		out.PL = float64(t.Failures) / float64(t.Trials)
	}
	return out, nil
}
