// Command bench measures the decode hot path outside the testing
// framework and writes the results as one JSON artifact, so benchmark
// regressions are tracked as repository artifacts. One invocation
// times each cell once:
//
//   - decoder_rows: for every matching decoder and d ∈ {5, 9, 13}, the
//     legacy allocating Decode path and the pooled zero-allocation
//     DecodeInto path on identical seeded syndromes, with ns/decode and
//     allocation counts from runtime.MemStats deltas;
//   - kernel_rows: the batch kernel at every plane width W ∈ {1, 2, 4}
//     and d ∈ {5, 7, 9, 13} against the one-lane sfq.Mesh timed on the
//     same syndromes, each width cross-checked bit-exactly (corrections
//     and cycle counts) against the mesh before timing;
//   - scaling_rows: the multi-core Monte-Carlo sweep at several worker
//     counts, steal schedules and plane widths, which must all produce
//     the same point fingerprint.
//
// The artifact embeds the run manifest (git SHA + dirty flag, Go
// version, GOMAXPROCS, CPU count, env knobs) so a number in the perf
// trajectory is attributable to the machine and tree that produced it.
// It is written before the floors are checked (W=4 ≥ 1.5× the one-lane
// mesh at d ≥ 9 and allocation-free; ≥ 0.8× ideal scaling where the
// cores exist), so a failing floor exits non-zero with its evidence on
// disk.
//
// Usage:
//
//	bench -out PATH [-iters 2000] [-scale-cycles 4000] [-allow-dirty] [-obs :9090]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/decodepool"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/unionfind"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/sfq"
)

// Artifact is the on-disk schema of one bench run: the manifest plus
// the decoder, kernel and scaling rows.
type Artifact struct {
	Manifest    *obs.Manifest `json:"manifest"`
	DecoderRows []DecoderRow  `json:"decoder_rows"`
	KernelRows  []KernelRow   `json:"kernel_rows"`
	ScalingRows []ScaleRow    `json:"scaling_rows"`
}

// DecoderRow is one software-decoder measurement.
type DecoderRow struct {
	Decoder         string  `json:"decoder"`
	Distance        int     `json:"d"`
	Path            string  `json:"path"` // "legacy" or "pooled"
	Iters           int     `json:"iters"`
	NsPerDecode     float64 `json:"ns_per_decode"`
	AllocsPerDecode float64 `json:"allocs_per_decode"`
	BytesPerDecode  float64 `json:"bytes_per_decode"`
}

func main() {
	if err := knob.CheckEnv(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out := flag.String("out", "", "artifact path (required)")
	iters := flag.Int("iters", 2000, "timed decodes per cell")
	scaleCycles := flag.Int("scale-cycles", 4000, "Monte-Carlo cycles per point in the scaling sweep")
	allowDirty := flag.Bool("allow-dirty", false, "permit benchmarking an uncommitted tree (artifact still records git_dirty)")
	obsAddr := flag.String("obs", "", "serve /metrics and /debug/pprof on this address while benchmarking (e.g. :9090)")
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "bench: -out is required")
		os.Exit(2)
	}

	manifest := obs.NewManifest(map[string]any{
		"iters":           *iters,
		"scale_cycles":    *scaleCycles,
		"sfq_batch_words": sfq.BatchWords,
	})
	if manifest.GitDirty && !*allowDirty {
		fmt.Fprintf(os.Stderr,
			"bench: working tree is dirty (uncommitted changes at %s) — a perf artifact from an "+
				"unreproducible tree is worthless; commit first or rerun with -allow-dirty\n",
			manifest.GitSHA)
		os.Exit(1)
	}
	if *obsAddr != "" {
		srv, err := obs.ServeDefault(*obsAddr, map[string]any{"iters": *iters})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s/metrics\n", srv.Addr)
	}

	art := Artifact{Manifest: manifest}
	var err error
	if art.DecoderRows, err = benchDecoders(*iters); err != nil {
		log.Fatal(err)
	}
	if art.KernelRows, err = benchKernel(*iters); err != nil {
		log.Fatal(err)
	}
	if art.ScalingRows, err = benchScaling(*scaleCycles); err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteArtifact(*out, art); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d decoder, %d kernel, %d scaling rows)\n",
		*out, len(art.DecoderRows), len(art.KernelRows), len(art.ScalingRows))
	if err := checkFloors(art); err != nil {
		log.Fatal(err)
	}
}

// checkFloors applies the acceptance floors to a written artifact and
// joins every violation. At d ≥ 9 the four-word layout must beat the
// one-lane sfq.Mesh measured in the same run by ≥1.5× per decode,
// allocation-free; whenever the cores exist (workers ≤ NumCPU) the
// default-width scaling sweep must reach ≥0.8× ideal. Oversubscribed
// scaling rows are diagnostics — on a 1-CPU box running 8 workers,
// scheduler overhead is the measurement, not a regression.
func checkFloors(art Artifact) error {
	var errs []error
	for _, row := range art.KernelRows {
		if row.Words != 4 || row.Distance < 9 {
			continue
		}
		if row.SpeedupVsMesh < 1.5 {
			errs = append(errs, fmt.Errorf("kernel d=%d W=4: %.2fx vs the 1-lane mesh is below the 1.5x floor", row.Distance, row.SpeedupVsMesh))
		}
		if row.BatchAllocsPerDecode > 0.01 {
			errs = append(errs, fmt.Errorf("kernel d=%d W=4: %.2f allocs/decode, want 0", row.Distance, row.BatchAllocsPerDecode))
		}
	}
	for _, row := range art.ScalingRows {
		if row.Workers <= runtime.NumCPU() && row.Words == 0 && row.Efficiency < 0.8 {
			errs = append(errs, fmt.Errorf("scaling workers=%d%s: efficiency %.2f is below the 0.8 floor at ideal=%d",
				row.Workers, stealTag(row.ForceSteal), row.Efficiency, row.Ideal))
		}
	}
	return errors.Join(errs...)
}

// benchDecoders times the legacy and pooled paths of every software
// decoder on the fixed syndrome set of each distance.
func benchDecoders(iters int) ([]DecoderRow, error) {
	var rows []DecoderRow
	for _, d := range []int{5, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes, err := sampleSyndromes(l, g, 64, int64(100+d))
		if err != nil {
			return nil, err
		}
		n := len(syndromes)
		for _, dec := range []decodepool.IntoDecoder{greedy.New(), mwpm.New(), unionfind.New()} {
			legacy, err := measure(iters, n, func(i int) error {
				_, err := dec.Decode(g, syndromes[i%n])
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s d=%d legacy: %w", dec.Name(), d, err)
			}
			legacy.Decoder, legacy.Distance, legacy.Path = dec.Name(), d, "legacy"

			s := decodepool.NewScratch()
			pooled, err := measure(iters, n, func(i int) error {
				_, err := dec.DecodeInto(g, syndromes[i%n], s)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s d=%d pooled: %w", dec.Name(), d, err)
			}
			pooled.Decoder, pooled.Distance, pooled.Path = dec.Name(), d, "pooled"
			rows = append(rows, legacy, pooled)

			fmt.Printf("%-11s d=%-3d legacy %9.0f ns/decode %7.1f allocs | pooled %9.0f ns/decode %7.1f allocs | %.2fx\n",
				dec.Name(), d, legacy.NsPerDecode, legacy.AllocsPerDecode,
				pooled.NsPerDecode, pooled.AllocsPerDecode,
				legacy.NsPerDecode/pooled.NsPerDecode)
		}
	}
	return rows, nil
}

// sampleSyndromes draws the benchmark's fixed syndrome set (dephasing at
// p = 5%, same seeds as BenchmarkDecodeHotPath).
func sampleSyndromes(l *lattice.Lattice, g *lattice.Graph, count int, seed int64) ([][]bool, error) {
	rng := noise.NewRand(seed)
	ch, err := noise.NewDephasing(0.05)
	if err != nil {
		return nil, err
	}
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	syndromes := make([][]bool, count)
	for i := range syndromes {
		f := pauli.NewFrame(l.NumQubits())
		ch.Sample(rng, f, targets)
		syndromes[i] = g.Syndrome(f)
	}
	return syndromes, nil
}

// measure times iters calls decode(0), decode(1), … after a warm-up
// pass over decode(0..warm-1), and reads allocation counts from
// MemStats deltas. The figures are per call; callers that decode
// several syndromes per call normalize.
func measure(iters, warm int, decode func(i int) error) (DecoderRow, error) {
	for i := 0; i < warm; i++ {
		if err := decode(i); err != nil {
			return DecoderRow{}, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := decode(i); err != nil {
			return DecoderRow{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return DecoderRow{
		Iters:           iters,
		NsPerDecode:     float64(elapsed.Nanoseconds()) / float64(iters),
		AllocsPerDecode: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters),
		BytesPerDecode:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters),
	}, nil
}
