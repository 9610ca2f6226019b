// Command bench measures the decode hot path outside the testing
// framework and writes the results as one JSON artifact, so benchmark
// regressions are tracked as repository artifacts. One invocation
// times each cell once:
//
//   - decoder_rows: for every matching decoder and d ∈ {5, 9, 13}, the
//     legacy allocating Decode path and the pooled zero-allocation
//     DecodeInto path on identical seeded syndromes, with ns/decode and
//     allocation counts from runtime.MemStats deltas;
//   - kernel_rows: for d ∈ {5, 7, 9, 13}, the one-lane sfq.Mesh and the
//     full batch per lane, each timed 21 times interleaved with the
//     reference model (internal/sfq/oracle) on the same syndromes and
//     reported as the median and IQR of cell ÷ oracle, after a
//     bit-exact cross-check (corrections and cycle counts) against it;
//   - scaling_rows: the multi-core Monte-Carlo sweep at several worker
//     counts and steal schedules, which must all produce the same point
//     fingerprint.
//
// The artifact embeds the run manifest (git SHA + dirty flag, Go
// version, GOMAXPROCS, CPU count, env knobs) so a number in the perf
// trajectory is attributable to the machine and tree that produced it.
// It is written before the floors are checked (batch rows
// allocation-free; ≥ 0.8× ideal scaling where the cores exist), so a
// failing floor exits non-zero with its evidence on disk. With
// -compare, every kernel cell must also be no worse than the same cell
// of an earlier artifact: its median ratio may exceed the earlier one
// by at most the larger of the two IQRs.
//
// Usage:
//
//	bench -out PATH [-compare BASE.json] [-iters 2000] [-scale-cycles 4000] [-allow-dirty] [-obs :9090]
package main

import (
	"encoding/json"
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
	compare := flag.String("compare", "", "earlier artifact whose kernel cells this run must not regress against")
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
		"iters":        *iters,
		"scale_cycles": *scaleCycles,
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
	errs := []error{checkFloors(art)}
	if *compare != "" {
		errs = append(errs, compareKernel(art, *compare))
	}
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
}

// checkFloors applies the acceptance floors to a written artifact and
// joins every violation: every batch row must be allocation-free, and
// whenever the cores exist (workers ≤ NumCPU) the scaling sweep must
// reach ≥0.8× ideal. Oversubscribed scaling rows are diagnostics — on a
// 1-CPU box running 8 workers, scheduler overhead is the measurement,
// not a regression.
func checkFloors(art Artifact) error {
	var errs []error
	for _, row := range art.KernelRows {
		if row.Cell == "batch" && row.AllocsPerDecode > 0.01 {
			errs = append(errs, fmt.Errorf("kernel d=%d batch: %.2f allocs/decode, want 0", row.Distance, row.AllocsPerDecode))
		}
	}
	for _, row := range art.ScalingRows {
		if row.Workers <= runtime.NumCPU() && row.Efficiency < 0.8 {
			errs = append(errs, fmt.Errorf("scaling workers=%d%s: efficiency %.2f is below the 0.8 floor at ideal=%d",
				row.Workers, stealTag(row.ForceSteal), row.Efficiency, row.Ideal))
		}
	}
	return errors.Join(errs...)
}

// compareKernel fails every kernel cell of art whose median
// cell ÷ oracle ratio is worse than the same (d, cell) of the artifact
// at basePath by more than the larger of the two IQRs. Cells absent
// from the base are skipped; a base sharing no cell is an error.
func compareKernel(art Artifact, basePath string) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	var base Artifact
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("compare %s: %w", basePath, err)
	}
	key := func(r KernelRow) string { return fmt.Sprintf("%d/%s", r.Distance, r.Cell) }
	prev := map[string]KernelRow{}
	for _, row := range base.KernelRows {
		prev[key(row)] = row
	}
	var errs []error
	matched := 0
	for _, row := range art.KernelRows {
		b, ok := prev[key(row)]
		if !ok {
			continue
		}
		matched++
		band := max(row.RatioIQR, b.RatioIQR)
		fmt.Printf("compare     d=%-3d %-6s ratio %.4f vs %.4f (band %.4f)\n", row.Distance, row.Cell, row.Ratio, b.Ratio, band)
		if row.Ratio-b.Ratio > band {
			errs = append(errs, fmt.Errorf("kernel d=%d %s: ratio %.4f is worse than %s's %.4f by more than the band %.4f",
				row.Distance, row.Cell, row.Ratio, basePath, b.Ratio, band))
		}
	}
	if matched == 0 {
		errs = append(errs, fmt.Errorf("compare %s: no kernel cell in common", basePath))
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
