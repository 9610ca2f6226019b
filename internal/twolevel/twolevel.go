// Package twolevel implements two-level decoding: a fast approximate
// SFQ mesh decode (level 1) whose per-decode Stats drive an escalation
// policy, with hard instances re-decoded by an accurate software decoder
// (level 2) — MWPM by default, MLD where its exhaustive enumeration is
// legal. This is the NEO-QEC / Das-et-al. refinement of the paper's
// architecture: keep the mesh's nanosecond latency on the easy (vast
// majority of) syndromes and buy back most of the accuracy gap by
// escalating only the instances the mesh itself flags as hard.
//
// The escalation verdict is a pure function of sfq.Stats. Because the
// mesh kernel is pinned Stats-identical to the reference model at every
// lane count by the sfq conformance suites, a verdict computed at any
// lane count or sweep shard shape is bit-identical, which makes
// two-level sweeps exactly as deterministic as pure-mesh sweeps. The
// differential conformance suite in this package pins the rest: a
// non-escalated decode is bit-identical to the pure mesh, an escalated
// one bit-identical to the pure level-2 decoder.
package twolevel

import (
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/sfq"
)

// Policy decides, from the level-1 mesh Stats of one decode, whether to
// re-decode the syndrome with the accurate level-2 decoder. The zero
// value never escalates; DefaultPolicy escalates on every signal that
// the pairing protocol struggled.
type Policy struct {
	// OnRetry escalates when the mesh needed stall-recovery resets
	// (Stats.Retries > 0).
	OnRetry bool
	// OnUnresolved escalates when the pairing protocol gave up on any
	// hot module (Stats.Unresolved > 0) — whether the watchdog then
	// drained it to a boundary (Stats.Fallbacks > 0 implies
	// Unresolved > 0) or left it hot.
	OnUnresolved bool
	// OnStall escalates on any quiescent stall (Stats.Stalls > 0),
	// including ones the retry mechanism recovered.
	OnStall bool
	// HotThreshold, when positive, escalates any syndrome whose initial
	// hot-check count is >= the threshold: dense instances are where
	// greedy mesh pairing diverges from the MWPM optimum even when the
	// protocol completes cleanly.
	HotThreshold int
	// CycleThreshold, when positive, escalates any decode that consumed
	// >= that many mesh cycles.
	CycleThreshold int
}

// DefaultPolicy escalates on every protocol-distress signal (retries,
// stalls, give-ups) but not on the hot/cycle thresholds.
func DefaultPolicy() Policy {
	return Policy{OnRetry: true, OnUnresolved: true, OnStall: true}
}

// HotCount recovers the initial hot-check count of a decode from its
// Stats: every hot module is cleared exactly once (Pairings counts
// cleared modules, including the Fallbacks drained by the watchdog,
// which Unresolved also counts) or left hot.
func HotCount(st sfq.Stats) int { return st.Pairings + st.Unresolved - st.Fallbacks }

// Escalate is the escalation verdict: a pure function of the level-1
// Stats, so it is deterministic and kernel-independent by construction.
func (p Policy) Escalate(st sfq.Stats) bool {
	switch {
	case p.OnRetry && st.Retries > 0:
		return true
	case p.OnUnresolved && st.Unresolved > 0:
		return true
	case p.OnStall && st.Stalls > 0:
		return true
	case p.HotThreshold > 0 && HotCount(st) >= p.HotThreshold:
		return true
	case p.CycleThreshold > 0 && st.Cycles >= p.CycleThreshold:
		return true
	}
	return false
}

// Decoder is a two-level decoder: a level-1 SFQ mesh at any lane count
// plus an accurate level-2 decodepool.IntoDecoder. It implements
// decoder.Decoder, decodepool.IntoDecoder and decodepool.BatchDecoder,
// so it drops into every sweep and serve path a mesh does.
//
// Like the meshes it wraps, a Decoder is single-goroutine: sweeps use
// one per worker.
type Decoder struct {
	l1  *sfq.BatchMesh
	acc decodepool.IntoDecoder
	pol Policy

	verdicts []bool // escalation verdicts of the last decode
	one      [1][]bool

	decodes     int64
	escalations int64
	obsDecodes  *obs.Counter // nil until Instrument
	obsEscal    *obs.Counter
	l1Ns        *obs.Histogram // nil until Instrument: per-decode level split
	l2Ns        *obs.Histogram

	ownScratch *decodepool.Scratch // lazy, for the plain Decode face
}

// New wraps a level-1 mesh: the one-lane sfq.Mesh or a batch mesh.
func New(mesh *sfq.BatchMesh, acc decodepool.IntoDecoder, pol Policy) *Decoder {
	return &Decoder{l1: mesh, acc: acc, pol: pol, verdicts: make([]bool, mesh.Lanes())}
}

// NewBatch is New; it names the batch-mesh call sites.
func NewBatch(b *sfq.BatchMesh, acc decodepool.IntoDecoder, pol Policy) *Decoder {
	return New(b, acc, pol)
}

// Name implements decoder.Decoder.
func (d *Decoder) Name() string {
	accName := "accurate"
	if n, ok := d.acc.(interface{ Name() string }); ok {
		accName = n.Name()
	}
	return "twolevel(" + d.l1.Name() + "+" + accName + ")"
}

// Level1 returns the wrapped mesh decoder (for pool recycling).
func (d *Decoder) Level1() decoder.Decoder { return d.l1 }

// Policy returns the escalation policy.
func (d *Decoder) Policy() Policy { return d.pol }

// Decodes returns how many syndromes this decoder has decoded.
func (d *Decoder) Decodes() int64 { return d.decodes }

// Escalations returns how many of them escalated to level 2.
func (d *Decoder) Escalations() int64 { return d.escalations }

// Escalated reports the verdict for syndrome i of the last decode
// (i = 0 after a single decode).
func (d *Decoder) Escalated(i int) bool { return d.verdicts[i] }

// MeshStats returns the level-1 Stats for syndrome i of the last
// decode.
func (d *Decoder) MeshStats(i int) sfq.Stats { return d.l1.LaneStats(i) }

// Instrument mirrors the decode/escalation counters into registry
// counters twolevel_decodes_total and twolevel_escalations_total, and
// splits per-decode wall time into the twolevel_l1_ns / twolevel_l2_ns
// histograms — the level-1 mesh share versus the level-2 accurate
// re-decode share. The split is what the two-tier latency mixture
// model (and any tail investigation) actually needs: an escalated
// decode's tail is almost entirely level-2 time, and these histograms
// prove or refute that per run. Timing costs two clock reads per
// decode (three when escalating) and no allocations, so the
// zero-allocation regression suite covers the instrumented path.
func (d *Decoder) Instrument(r *obs.Registry) {
	d.obsDecodes = r.Counter("twolevel_decodes_total")
	d.obsEscal = r.Counter("twolevel_escalations_total")
	d.l1Ns = r.Histogram("twolevel_l1_ns")
	d.l2Ns = r.Histogram("twolevel_l2_ns")
}

func (d *Decoder) count(decodes, escalations int64) {
	d.decodes += decodes
	d.escalations += escalations
	if d.obsDecodes != nil {
		d.obsDecodes.Add(decodes)
		if escalations != 0 {
			d.obsEscal.Add(escalations)
		}
	}
}

// Decode implements decoder.Decoder with an internal scratch.
func (d *Decoder) Decode(g *lattice.Graph, syn []bool) (decoder.Correction, error) {
	if d.ownScratch == nil {
		d.ownScratch = decodepool.NewScratch()
	}
	c, err := d.DecodeInto(g, syn, d.ownScratch)
	if err != nil {
		return decoder.Correction{}, err
	}
	return decoder.Correction{Qubits: append([]int(nil), c.Qubits...)}, nil
}

// DecodeInto implements decodepool.IntoDecoder: a batch of one through
// DecodeBatchInto. The returned correction is scratch-owned, so the
// caller's usual consume-before-next-decode rule is unchanged.
func (d *Decoder) DecodeInto(g *lattice.Graph, syn []bool, s *decodepool.Scratch) (decoder.Correction, error) {
	d.one[0] = syn
	cs, err := d.DecodeBatchInto(g, d.one[:], s)
	d.one[0] = nil
	if err != nil {
		return decoder.Correction{}, err
	}
	return cs[0], nil
}

// arena holds the escalated corrections of one batch decode, reusing
// one backing array across batches (Scratch-owned, per-worker).
type arena struct {
	q     []int
	spans [][2]int
}

func mkArena() any { return new(arena) }

// BatchWidth implements decodepool.BatchDecoder.
func (d *Decoder) BatchWidth() int { return d.l1.BatchWidth() }

// DecodeBatchInto implements decodepool.BatchDecoder: one level-1 batch
// decode, then per-syndrome verdicts and level-2 re-decodes. Escalated
// corrections are copied into a scratch-owned arena because the level-2
// decoder reuses one scalar qubit buffer per call; non-escalated ones
// alias the mesh batch arena untouched. The level-2 decoder must not
// touch the scratch's batch buffer family (decodepool documents the
// split; mwpm/mld use only the scalar family).
func (d *Decoder) DecodeBatchInto(g *lattice.Graph, syns [][]bool, s *decodepool.Scratch) ([]decoder.Correction, error) {
	if cap(d.verdicts) < len(syns) {
		d.verdicts = make([]bool, len(syns))
	}
	d.verdicts = d.verdicts[:len(syns)]

	var t0 time.Time
	if d.l1Ns != nil {
		t0 = time.Now()
	}
	cs, err := d.l1.DecodeBatchInto(g, syns, s)
	if err != nil {
		return nil, err
	}
	if d.l1Ns != nil {
		// Per-syndrome share of the batch, mirroring how serve accounts
		// lane-shared wall time.
		per := uint64(time.Since(t0)) / uint64(len(syns))
		for range syns {
			d.l1Ns.Observe(per)
		}
	}
	escalated := int64(0)
	ar := s.State("twolevel:arena", mkArena).(*arena)
	ar.q, ar.spans = ar.q[:0], ar.spans[:0]
	for i := range syns {
		d.verdicts[i] = d.pol.Escalate(d.l1.LaneStats(i))
		if !d.verdicts[i] {
			continue
		}
		escalated++
		var t1 time.Time
		if d.l2Ns != nil {
			t1 = time.Now()
		}
		c2, err := d.acc.DecodeInto(g, syns[i], s)
		if err != nil {
			return nil, err
		}
		if d.l2Ns != nil {
			d.l2Ns.Observe(uint64(time.Since(t1)))
		}
		start := len(ar.q)
		ar.q = append(ar.q, c2.Qubits...)
		ar.spans = append(ar.spans, [2]int{i, start})
	}
	// Slice out of the arena only after all appends: append may move
	// the backing array while it grows toward its steady-state size.
	for k, sp := range ar.spans {
		end := len(ar.q)
		if k+1 < len(ar.spans) {
			end = ar.spans[k+1][1]
		}
		cs[sp[0]] = decoder.Correction{Qubits: ar.q[sp[1]:end:end]}
	}
	d.count(int64(len(syns)), escalated)
	return cs, nil
}
