package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/sfq/oracle"
	"repro/internal/stats"
)

// KernelRow is one cell of the kernel comparison at one distance: the
// mesh at one lane ("1-lane", sfq.New's sfq.Mesh, decoded one syndrome
// per DecodeInto call) or the full batch per lane ("batch"),
// timed Repeats times, each repeat interleaved with the reference model
// (internal/sfq/oracle) on the same syndromes. Ratio is the median over
// repeats of cell ÷ oracle ns/decode and RatioIQR its interquartile
// range. The oracle is frozen test code, so the ratio cancels host
// speed; it is what -compare tests.
type KernelRow struct {
	Distance        int     `json:"d"`
	Cell            string  `json:"cell"`
	Lanes           int     `json:"lanes"`
	Iters           int     `json:"iters"`
	Repeats         int     `json:"repeats"`
	NsPerDecode     float64 `json:"ns_per_decode"`
	OracleNs        float64 `json:"oracle_ns_per_decode"`
	Ratio           float64 `json:"ratio_median"`
	RatioIQR        float64 `json:"ratio_iqr"`
	CyclesPerDecode float64 `json:"cycles_per_decode"`
	AllocsPerDecode float64 `json:"allocs_per_decode"`
}

// ScaleRow is one Monte-Carlo sweep schedule (worker count and steal
// mode), run Repeats times. WallsMs lists every repeat's wall clock in
// run order and WallMs is their median; SpeedupVs1 is the one-worker
// median wall over this row's. Fingerprint hashes every returned
// point; every repeat of every row must agree (the harness fails
// otherwise), which pins bit-identical sweep output across worker
// counts and steal schedules. Ideal is min(workers, NumCPU) — on a box
// with fewer cores than workers, oversubscription cannot speed
// anything up and Efficiency is measured against what the silicon can
// actually deliver. The scheduler counters are summed over the
// repeats.
type ScaleRow struct {
	Workers     int       `json:"workers"`
	ForceSteal  bool      `json:"force_steal,omitempty"`
	Repeats     int       `json:"repeats"`
	WallsMs     []float64 `json:"walls_ms"`
	WallMs      float64   `json:"wall_ms"`
	SpeedupVs1  float64   `json:"speedup_vs_1"`
	Ideal       int       `json:"ideal"`
	Efficiency  float64   `json:"efficiency"`
	Fingerprint string    `json:"fingerprint"`
	Steals      uint64    `json:"steals"`
	Stolen      uint64    `json:"stolen"`
	Parks       uint64    `json:"parks"`
}

// scaleRepeats is how many times the scaling sweep runs each schedule.
// The schedules alternate within a repeat, so every row's median wall
// is taken over the same stretch of host speed; one slow sweep moves a
// median of five by at most one rank instead of setting the row.
const scaleRepeats = 5

// kernelRepeats is how many times each kernel cell is timed, and
// kernelChunks how many slices one repeat of a distance alternates its
// oracle and cells in, so they share the host's momentary speed. The
// -compare band is an IQR, which does not shrink with more repeats
// while the median's noise does: under normal noise, two identical runs
// of five repeats differ by more than the band in 7% of cells (45% of
// eight-cell runs), of 21 repeats in 0.06% (0.5%).
const (
	kernelRepeats = 21
	kernelChunks  = 16
)

// kernelCell is one timed decoder configuration at one distance: call i
// of decode completes perCall decodes, and a repeat makes calls calls
// (a multiple of kernelChunks).
type kernelCell struct {
	name    string
	calls   int
	perCall int
	decode  func(i int) error
	ns      []float64 // ns/decode per repeat
	allocs  float64   // allocs/decode, the worst repeat

	// The open repeat: calls made, their wall time and heap allocations.
	done    int
	elapsed time.Duration
	mallocs uint64
}

// run times the open repeat's next calls/kernelChunks calls. Unlike
// measure it forces no GC per slice: a collection between slices would
// land in one side's time and widen the band.
func (c *kernelCell) run() error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for end := c.done + c.calls/kernelChunks; c.done < end; c.done++ {
		if err := c.decode(c.done); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
	}
	c.elapsed += time.Since(start)
	runtime.ReadMemStats(&ms1)
	c.mallocs += ms1.Mallocs - ms0.Mallocs
	return nil
}

// close records the open repeat's per-decode figures.
func (c *kernelCell) close() {
	decodes := float64(c.done * c.perCall)
	c.ns = append(c.ns, float64(c.elapsed.Nanoseconds())/decodes)
	c.allocs = max(c.allocs, float64(c.mallocs)/decodes)
	c.done, c.elapsed, c.mallocs = 0, 0, 0
}

// benchKernel times, at each d ∈ {5, 7, 9, 13}, the one-lane sfq.Mesh
// and the full batch per lane against the oracle on the same seeded
// syndromes. A repeat times, distance by distance, the oracle and each
// cell over whole passes of the syndrome set, alternating between them
// in kernelChunks slices, so every cell ratio pairs with an oracle
// measurement taken over the same stretch of time, and the
// kernelRepeats repeats of a cell spread over the whole run. The oracle
// is 10–50× slower than the kernel, so it makes a sixteenth of the
// cells' iters decodes.
func benchKernel(iters int) ([]KernelRow, error) {
	var rows []KernelRow
	var cells [][]*kernelCell // per distance: the oracle, then the cells
	cycles := map[int]float64{}
	dists := []int{5, 7, 9, 13}
	for _, d := range dists {
		cs, cyc, err := kernelCells(d, iters)
		if err != nil {
			return nil, err
		}
		cells, cycles[d] = append(cells, cs), cyc
	}
	for r := 0; r < kernelRepeats; r++ {
		for i, cs := range cells {
			runtime.GC()
			for ch := 0; ch < kernelChunks; ch++ {
				for _, c := range cs {
					if err := c.run(); err != nil {
						return nil, fmt.Errorf("kernel d=%d %w", dists[i], err)
					}
				}
			}
			for _, c := range cs {
				c.close()
			}
		}
	}
	for i, cs := range cells {
		ref := cs[0]
		for _, c := range cs[1:] {
			ratio := make([]float64, kernelRepeats)
			for r := range ratio {
				ratio[r] = c.ns[r] / ref.ns[r]
			}
			row := KernelRow{
				Distance:        dists[i],
				Cell:            c.name,
				Lanes:           c.perCall,
				Iters:           c.calls * c.perCall,
				Repeats:         kernelRepeats,
				NsPerDecode:     stats.Percentile(c.ns, 0.5),
				OracleNs:        stats.Percentile(ref.ns, 0.5),
				Ratio:           stats.Percentile(ratio, 0.5),
				RatioIQR:        stats.Percentile(ratio, 0.75) - stats.Percentile(ratio, 0.25),
				CyclesPerDecode: cycles[dists[i]],
				AllocsPerDecode: c.allocs,
			}
			rows = append(rows, row)
			fmt.Printf("sfq kernel  d=%-3d %-6s %2d lanes %9.0f ns/decode | %.4f ± %.4f of the oracle (%.0f ns/decode, %.2f allocs)\n",
				row.Distance, c.name, row.Lanes, row.NsPerDecode, row.Ratio, row.RatioIQR, row.OracleNs, row.AllocsPerDecode)
		}
	}
	return rows, nil
}

// kernelCells builds the oracle, one-lane and batch cells of one
// distance, after checking both kernel cells bit-identical to the
// oracle (corrections and cycle counts) on every syndrome, and returns
// them with the mean cycles per decode.
func kernelCells(d, iters int) ([]*kernelCell, float64, error) {
	l := lattice.MustNew(d)
	g := l.MatchingGraph(lattice.ZErrors)
	syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
	if err != nil {
		return nil, 0, err
	}
	n := len(syndromes)
	ref := oracle.New(g, sfq.Final)
	mesh := sfq.New(g, sfq.Final)
	ss := decodepool.NewScratch()
	batch := sfq.NewBatch(g, sfq.Final)
	sb := decodepool.NewScratch()
	corrs, err := batch.DecodeBatchInto(g, syndromes, sb)
	if err != nil {
		return nil, 0, err
	}
	cycles := 0
	for i, syn := range syndromes {
		q, st, err := ref.Decode(syn, nil)
		if err != nil {
			return nil, 0, err
		}
		c, err := mesh.DecodeInto(g, syn, ss)
		if err != nil {
			return nil, 0, err
		}
		if !slices.Equal(c.Qubits, q) || mesh.Stats().Cycles != st.Cycles ||
			!slices.Equal(corrs[i].Qubits, q) || batch.LaneStats(i).Cycles != st.Cycles {
			return nil, 0, fmt.Errorf("kernel d=%d syndrome %d: oracle %v in %d cycles, 1-lane %v in %d, batch %v in %d",
				d, i, q, st.Cycles, c.Qubits, mesh.Stats().Cycles, corrs[i].Qubits, batch.LaneStats(i).Cycles)
		}
		cycles += st.Cycles
	}
	// Rotating lane windows over the syndrome set, as in
	// BenchmarkSFQMesh/batch: over n windows every syndrome decodes in
	// every lane once.
	lanes := batch.Lanes()
	wins := make([][][]bool, n)
	for i := range wins {
		wins[i] = make([][]bool, lanes)
		for j := range wins[i] {
			wins[i][j] = syndromes[(i+j)%n]
		}
	}
	var refQ []int
	return []*kernelCell{
		{name: "oracle", calls: (iters + 16*n - 1) / (16 * n) * n, perCall: 1, decode: func(i int) error {
			var err error
			refQ, _, err = ref.Decode(syndromes[i%n], refQ[:0])
			return err
		}},
		{name: "1-lane", calls: (iters + n - 1) / n * n, perCall: 1, decode: func(i int) error {
			_, err := mesh.DecodeInto(g, syndromes[i%n], ss)
			return err
		}},
		{name: "batch", calls: (iters + n*lanes - 1) / (n * lanes) * n, perCall: lanes, decode: func(i int) error {
			_, err := batch.DecodeBatchInto(g, wins[i%n], sb)
			return err
		}},
	}, float64(cycles) / float64(n), nil
}

// scaleSweep runs one mixed-distance Monte-Carlo sweep through the
// batch decoder pool and returns its points, wall-clock, and scheduler
// counters.
func scaleSweep(cycles, workers int, forceSteal bool) ([]stats.Point, time.Duration, sched.Stats, error) {
	var ss sched.Stats
	cfg := stats.CurveConfig{
		Distances:  []int{5, 9, 13},
		Rates:      []float64{0.03, 0.05},
		Cycles:     cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		Seed:       42,
		Workers:    workers,
		ForceSteal: forceSteal,
		SchedStats: &ss,
		Batch:      true,
	}
	pool := sfq.NewPool(sfq.Final)
	cfg.NewDecoderZ = func(d int) decoder.Decoder { return pool.GetBatch(d, lattice.ZErrors) }
	cfg.FreeDecoder = pool.Release
	start := time.Now()
	points, err := stats.Curves(cfg)
	return points, time.Since(start), ss, err
}

// fingerprintPoints hashes the full point set (FNV-1a over the fields
// that define a verdict). Two sweeps with the same fingerprint produced
// bit-identical results.
func fingerprintPoints(points []stats.Point) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, pt := range points {
		put(uint64(pt.D))
		put(math.Float64bits(pt.P))
		put(uint64(pt.Errors))
		put(uint64(pt.Cycles))
		put(uint64(pt.Forced))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// benchScaling measures the work-stealing engine's throughput scaling:
// the same mixed-distance sweep at 1/2/4/8 workers and once more at 8
// workers with forced stealing, scaleRepeats times each, alternating
// the schedules. Every run must produce the same point fingerprint —
// the multi-core path is only fast if it is also exact.
func benchScaling(cycles int) ([]ScaleRow, error) {
	rows := []ScaleRow{
		{Workers: 1}, {Workers: 2}, {Workers: 4}, {Workers: 8},
		{Workers: 8, ForceSteal: true},
	}
	baseFP := ""
	for rep := 0; rep < scaleRepeats; rep++ {
		for i := range rows {
			r := &rows[i]
			points, wall, ss, err := scaleSweep(cycles, r.Workers, r.ForceSteal)
			if err != nil {
				return nil, fmt.Errorf("scaling workers=%d: %w", r.Workers, err)
			}
			fp := fingerprintPoints(points)
			if baseFP == "" {
				baseFP = fp
			} else if fp != baseFP {
				return nil, fmt.Errorf("scaling workers=%d forceSteal=%v repeat %d: point fingerprint %s diverges from baseline %s — sweep results depend on the schedule",
					r.Workers, r.ForceSteal, rep, fp, baseFP)
			}
			r.WallsMs = append(r.WallsMs, float64(wall.Microseconds())/1e3)
			r.Steals += ss.Steals
			r.Stolen += ss.Stolen
			r.Parks += ss.Parks
		}
	}
	baseWall := stats.Percentile(rows[0].WallsMs, 0.5)
	for i := range rows {
		r := &rows[i]
		r.Repeats = scaleRepeats
		r.WallMs = stats.Percentile(r.WallsMs, 0.5)
		r.SpeedupVs1 = baseWall / r.WallMs
		r.Ideal = min(r.Workers, runtime.NumCPU())
		r.Efficiency = r.SpeedupVs1 / float64(r.Ideal)
		r.Fingerprint = baseFP
		fmt.Printf("mc scaling  workers=%d%s %8.1f ms median of %v | %.2fx vs 1 worker (ideal %d, efficiency %.2f) | %d steals / %d stolen\n",
			r.Workers, stealTag(r.ForceSteal), r.WallMs, r.WallsMs,
			r.SpeedupVs1, r.Ideal, r.Efficiency, r.Steals, r.Stolen)
	}
	return rows, nil
}

func stealTag(f bool) string {
	if !f {
		return ""
	}
	return " force-steal"
}
