package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/sched"
	"repro/internal/sfq"
	"repro/internal/stats"
)

// KernelRow is one (distance, plane width) measurement of the batch
// kernel. Lanes is the full lane complement at that width;
// SpeedupVsMesh is the per-decode throughput ratio against the one-lane
// sfq.Mesh of the same distance, measured in the same run
// (MeshNsPerDecode), so ≥1 means batching pays for its lane
// bookkeeping. Corrections and cycle counts are cross-checked
// bit-exactly against the mesh before timing.
type KernelRow struct {
	Distance             int     `json:"d"`
	Words                int     `json:"words"`
	Lanes                int     `json:"lanes"`
	Iters                int     `json:"iters"`
	NsPerDecode          float64 `json:"ns_per_decode"`
	DecodesPerSec        float64 `json:"decodes_per_sec"`
	MeshNsPerDecode      float64 `json:"mesh_ns_per_decode"`
	SpeedupVsMesh        float64 `json:"speedup_vs_mesh"`
	CyclesPerDecode      float64 `json:"cycles_per_decode"`
	BatchAllocsPerDecode float64 `json:"batch_allocs_per_decode"`
}

// ScaleRow is one Monte-Carlo sweep wall-clock measurement at a worker
// count. Fingerprint hashes every returned point; all rows of a run
// must agree (the harness fails otherwise), which pins bit-identical
// sweep output across worker counts, steal schedules, and plane widths.
// Ideal is min(workers, NumCPU) — on a box with fewer cores than
// workers, oversubscription cannot speed anything up and Efficiency is
// measured against what the silicon can actually deliver.
type ScaleRow struct {
	Workers     int     `json:"workers"`
	ForceSteal  bool    `json:"force_steal,omitempty"`
	Words       int     `json:"words,omitempty"` // 0: process default width
	WallMs      float64 `json:"wall_ms"`
	SpeedupVs1  float64 `json:"speedup_vs_1"`
	Ideal       int     `json:"ideal"`
	Efficiency  float64 `json:"efficiency"`
	Fingerprint string  `json:"fingerprint"`
	Steals      uint64  `json:"steals"`
	Stolen      uint64  `json:"stolen"`
	Parks       uint64  `json:"parks"`
}

// benchKernel times the batch kernel at every supported plane width
// on identical seeded syndromes, against the one-lane sfq.Mesh timed on
// the same syndromes. Each width is conformance-checked against the
// mesh (bit-identical corrections and cycle counts) before its timing
// loop, so the rows are also a width-conformance record. NewBatch's
// layout on 64-bit hosts is the W=4 row.
func benchKernel(iters int) ([]KernelRow, error) {
	var rows []KernelRow
	for _, d := range []int{5, 7, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
		if err != nil {
			return nil, err
		}
		n := len(syndromes)
		mesh := sfq.New(g, sfq.Final)
		ss := decodepool.NewScratch()
		cycles := 0
		for _, syn := range syndromes {
			if _, err := mesh.DecodeInto(g, syn, ss); err != nil {
				return nil, err
			}
			cycles += mesh.Stats().Cycles
		}
		one, err := measure(iters, n, func(i int) error {
			_, err := mesh.DecodeInto(g, syndromes[i%n], ss)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("kernel d=%d mesh: %w", d, err)
		}
		for _, words := range []int{1, 2, 4} {
			batch := sfq.NewBatchWithWidth(g, sfq.Final, words)
			if batch.Words() != words {
				return nil, fmt.Errorf("kernel d=%d: NewBatchWithWidth(%d) built a %d-word layout", d, words, batch.Words())
			}
			lanes := batch.Lanes()
			// Rotating lane windows over the syndrome set, as in
			// BenchmarkSFQMesh/batch.
			wins := make([][][]bool, n)
			for i := range wins {
				win := make([][]bool, lanes)
				for j := range win {
					win[j] = syndromes[(i+j)%n]
				}
				wins[i] = win
			}
			sb := decodepool.NewScratch()
			for wi, win := range wins {
				corrs, err := batch.DecodeBatchInto(g, win, sb)
				if err != nil {
					return nil, fmt.Errorf("kernel d=%d W=%d window %d: %w", d, words, wi, err)
				}
				for j, syn := range win {
					want, err := mesh.DecodeInto(g, syn, ss)
					if err != nil {
						return nil, err
					}
					if fmt.Sprint(want.Qubits) != fmt.Sprint(corrs[j].Qubits) {
						return nil, fmt.Errorf("d=%d W=%d window %d lane %d: corrections diverge: mesh %v, batch %v",
							d, words, wi, j, want.Qubits, corrs[j].Qubits)
					}
					if got := batch.LaneStats(j).Cycles; got != mesh.Stats().Cycles {
						return nil, fmt.Errorf("d=%d W=%d window %d lane %d: cycles diverge: mesh %d, batch %d",
							d, words, wi, j, mesh.Stats().Cycles, got)
					}
				}
			}
			// Enough windows to complete at least iters decodes; the
			// per-call figures are normalized by lanes.
			calls := (iters + lanes - 1) / lanes
			bat, err := measure(calls, n, func(i int) error {
				_, err := batch.DecodeBatchInto(g, wins[i%n], sb)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("kernel d=%d W=%d: %w", d, words, err)
			}
			ns := bat.NsPerDecode / float64(lanes)
			row := KernelRow{
				Distance:             d,
				Words:                words,
				Lanes:                lanes,
				Iters:                calls * lanes,
				NsPerDecode:          ns,
				DecodesPerSec:        1e9 / ns,
				MeshNsPerDecode:      one.NsPerDecode,
				SpeedupVsMesh:        one.NsPerDecode / ns,
				CyclesPerDecode:      float64(cycles) / float64(n),
				BatchAllocsPerDecode: bat.AllocsPerDecode / float64(lanes),
			}
			rows = append(rows, row)
			fmt.Printf("sfq kernel  d=%-3d W=%d %3d lanes %9.0f ns/decode | %.2fx vs 1-lane mesh  (%.0f decodes/sec, %.2f allocs)\n",
				d, words, lanes, row.NsPerDecode, row.SpeedupVsMesh, row.DecodesPerSec,
				row.BatchAllocsPerDecode)
		}
	}
	return rows, nil
}

// scaleSweep runs one mixed-distance Monte-Carlo sweep and returns its
// points, wall-clock, and scheduler counters. words > 0 pins every mesh
// to that plane width; 0 uses the process default through the batch
// decoder pool.
func scaleSweep(cycles, workers, words int, forceSteal bool) ([]stats.Point, time.Duration, sched.Stats, error) {
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
	if words > 0 {
		cfg.NewDecoderZ = func(d int) decoder.Decoder {
			return sfq.NewBatchWithWidth(lattice.MustNew(d).MatchingGraph(lattice.ZErrors), sfq.Final, words)
		}
	} else {
		pool := sfq.NewPool(sfq.Final)
		cfg.NewDecoderZ = func(d int) decoder.Decoder { return pool.GetBatch(d, lattice.ZErrors) }
		cfg.FreeDecoder = pool.Release
	}
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
// the same mixed-distance sweep at 1/2/4/8 workers, once more at 8
// workers with forced stealing, and once per explicit plane width at 2
// workers. Every run must produce the same point fingerprint — the
// multi-core path is only fast if it is also exact.
func benchScaling(cycles int) ([]ScaleRow, error) {
	type run struct {
		workers    int
		words      int
		forceSteal bool
	}
	runs := []run{
		{workers: 1}, {workers: 2}, {workers: 4}, {workers: 8},
		{workers: 8, forceSteal: true},
		{workers: 2, words: 1}, {workers: 2, words: 2}, {workers: 2, words: 4},
	}
	var rows []ScaleRow
	var baseWall time.Duration
	baseFP := ""
	for _, r := range runs {
		points, wall, ss, err := scaleSweep(cycles, r.workers, r.words, r.forceSteal)
		if err != nil {
			return nil, fmt.Errorf("scaling workers=%d W=%d: %w", r.workers, r.words, err)
		}
		fp := fingerprintPoints(points)
		if baseFP == "" {
			baseFP, baseWall = fp, wall
		} else if fp != baseFP {
			return nil, fmt.Errorf("scaling workers=%d W=%d forceSteal=%v: point fingerprint %s diverges from baseline %s — sweep results depend on the schedule",
				r.workers, r.words, r.forceSteal, fp, baseFP)
		}
		ideal := r.workers
		if n := runtime.NumCPU(); ideal > n {
			ideal = n
		}
		speedup := float64(baseWall) / float64(wall)
		row := ScaleRow{
			Workers:     r.workers,
			ForceSteal:  r.forceSteal,
			Words:       r.words,
			WallMs:      float64(wall.Microseconds()) / 1e3,
			SpeedupVs1:  speedup,
			Ideal:       ideal,
			Efficiency:  speedup / float64(ideal),
			Fingerprint: fp,
			Steals:      ss.Steals,
			Stolen:      ss.Stolen,
			Parks:       ss.Parks,
		}
		rows = append(rows, row)
		fmt.Printf("mc scaling  workers=%d%s%s %8.1f ms | %.2fx vs 1 worker (ideal %d, efficiency %.2f) | %d steals / %d stolen\n",
			r.workers, wordsTag(r.words), stealTag(r.forceSteal),
			row.WallMs, row.SpeedupVs1, row.Ideal, row.Efficiency, ss.Steals, ss.Stolen)
	}
	return rows, nil
}

func wordsTag(w int) string {
	if w == 0 {
		return ""
	}
	return fmt.Sprintf(" W=%d", w)
}

func stealTag(f bool) string {
	if !f {
		return ""
	}
	return " force-steal"
}
