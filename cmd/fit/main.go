// Command fit regenerates Table V: the per-distance c2 coefficients of
// the model PL ≈ c1·(p/pth)^(c2·d), fitted to below-threshold
// Monte-Carlo points of the final SFQ design. c2 measures the effective
// fraction of the code distance the approximate decoder retains.
//
// Usage:
//
//	fit [-cycles 40000] [-pth 0.05] [-distances 3,5,7,9] [-seed 1]
//	    [-workers 0] [-relwidth 0] [-progress]
//
// The sweep runs on the sharded Monte-Carlo engine: results are
// bit-identical for any -workers value, and -relwidth trades cycles
// for a target confidence-interval width per point.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/decoder"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/progress"
	"repro/internal/sfq"
	"repro/internal/stats"
)

func main() {
	if err := knob.CheckEnv(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cycles := flag.Int("cycles", 40000, "syndrome cycles per (d, p) point")
	pth := flag.Float64("pth", 0.05, "accuracy threshold used by the model")
	distances := flag.String("distances", "3,5,7,9", "code distances")
	workers := flag.Int("workers", 0, "concurrent trial shards (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "random seed")
	relWidth := flag.Float64("relwidth", 0, "stop a point once its 95% CI is tighter than this fraction of PL (0 = run all cycles)")
	showProgress := flag.Bool("progress", false, "live progress line on stderr")
	flag.Parse()

	var ds []int
	for _, f := range strings.Split(*distances, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatal(err)
		}
		ds = append(ds, v)
	}
	rates := []float64{0.015, 0.02, 0.025, 0.03, 0.035, 0.04}

	pool := sfq.NewPool(sfq.Final)
	cfg := stats.CurveConfig{
		Distances:  ds,
		Rates:      rates,
		Cycles:     *cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder {
			return pool.GetBatch(d, lattice.ZErrors)
		},
		Seed:           *seed,
		Workers:        *workers,
		TargetRelWidth: *relWidth,
		FreeDecoder:    pool.Release,
	}
	var bar *progress.Printer
	if *showProgress {
		bar = progress.New(os.Stderr, len(ds)*len(rates))
		cfg.Progress = bar.Observe
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	points, err := stats.CurvesContext(ctx, cfg)
	if bar != nil {
		bar.Finish()
	}
	if err != nil {
		log.Fatal(err)
	}

	paper := map[int]float64{3: 0.650, 5: 0.429, 7: 0.306, 9: 0.323}
	fmt.Printf("Table V — PL ≈ c1·(p/%.3f)^(c2·d) fits, %d cycles/point\n\n", *pth, *cycles)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\tc1\tc2\t(paper c2)")
	byD := stats.ByDistance(points)
	for _, d := range ds {
		c1, c2, err := stats.FitC2(byD[d], *pth)
		if err != nil {
			fmt.Fprintf(w, "%d\t—\t—\t(%.3f)  %v\n", d, paper[d], err)
			continue
		}
		fmt.Fprintf(w, "%d\t%.4f\t%.3f\t(%.3f)\n", d, c1, c2, paper[d])
	}
	w.Flush()
}
