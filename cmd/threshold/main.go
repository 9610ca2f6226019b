// Command threshold regenerates the Fig. 10 logical-error-rate curves:
// Monte-Carlo lifetime simulation of the SFQ decoder mesh across code
// distances and physical error rates, for any of the paper's incremental
// design variants, with pseudo-threshold and accuracy-threshold
// estimates.
//
// Usage:
//
//	threshold [-variant final] [-cycles 20000] [-distances 3,5,7,9]
//	          [-rates 0.01,...,0.1] [-workers 0] [-seed 1]
//	          [-relwidth 0] [-progress]
//
// Sweeps run on the sharded Monte-Carlo engine (internal/mc): points
// and trial shards execute in parallel, results are bit-identical for
// any -workers value, -relwidth enables adaptive early stopping on the
// Wilson interval, and Ctrl-C aborts cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
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
	"repro/internal/obs"
	"repro/internal/plot"
	"repro/internal/progress"
	"repro/internal/sfq"
	"repro/internal/stats"
)

// parseList parses each field of a comma-separated flag value.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, f := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	if err := knob.CheckEnv(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, runs the sweep and prints its table, chart and
// threshold estimates to stdout. -progress and -obs report on stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	variantName := fs.String("variant", "final", "design variant: baseline, resets, resets+boundaries, final")
	cycles := fs.Int("cycles", 20000, "syndrome cycles per (d, p) point")
	distances := fs.String("distances", "3,5,7,9", "code distances")
	rates := fs.String("rates", "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.10", "physical error rates")
	workers := fs.Int("workers", 0, "concurrent trial shards (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 1, "random seed")
	doPlot := fs.Bool("plot", false, "render the curves as an ASCII log-log chart")
	channel := fs.String("channel", "dephasing", "error channel: dephasing or depolarizing")
	relWidth := fs.Float64("relwidth", 0, "stop a point once its 95% CI is tighter than this fraction of PL (0 = run all cycles)")
	showProgress := fs.Bool("progress", false, "live progress line on stderr")
	obsAddr := fs.String("obs", "", "serve /metrics, /metrics.json, /manifest.json and /debug/pprof on this address (e.g. :9090)")
	fs.Parse(args)

	variant, ok := sfq.VariantByName(*variantName)
	if !ok {
		return fmt.Errorf("unknown variant %q", *variantName)
	}
	ds, err := parseList(*distances, strconv.Atoi)
	if err != nil {
		return err
	}
	ps, err := parseList(*rates, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
	if err != nil {
		return err
	}

	// One mesh pool for the whole sweep: finished points release their
	// meshes for the next point to reuse instead of rebuilding lattice,
	// graph, and mesh per shard.
	pool := sfq.NewPool(variant)
	cfg := stats.CurveConfig{
		Distances:  ds,
		Rates:      ps,
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
	if *obsAddr != "" {
		srv, err := obs.ServeDefault(*obsAddr, map[string]any{
			"variant": *variantName, "channel": *channel, "cycles": *cycles,
			"distances": *distances, "rates": *rates, "seed": *seed,
			"workers": *workers, "relwidth": *relWidth,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s/metrics\n", srv.Addr)
		cfg.Obs = obs.Default()
	}
	var bar *progress.Printer
	if *showProgress {
		bar = progress.New(os.Stderr, len(ds)*len(ps))
		cfg.Progress = bar.Observe
	}
	switch *channel {
	case "dephasing":
	case "depolarizing":
		cfg.NewChannel = func(p float64) (noise.Channel, error) { return noise.NewDepolarizing(p) }
		cfg.NewDecoderX = func(d int) decoder.Decoder {
			return pool.GetBatch(d, lattice.XErrors)
		}
	default:
		return fmt.Errorf("unknown channel %q", *channel)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	points, err := stats.CurvesContext(ctx, cfg)
	if bar != nil {
		bar.Finish()
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Fig. 10 — logical error rate, %s design, %s channel, %d cycles/point\n\n", variant.Name(), *channel, *cycles)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\tp\tPL\t95% CI\terrors\tcycles\tforced")
	for _, pt := range points {
		fmt.Fprintf(w, "%d\t%.3f\t%.5f\t[%.5f, %.5f]\t%d\t%d\t%d\n",
			pt.D, pt.P, pt.PL, pt.Lo, pt.Hi, pt.Errors, pt.Cycles, pt.Forced)
	}
	w.Flush()

	fmt.Fprintln(stdout)
	if *doPlot {
		chart := &plot.Chart{
			Title: "Fig. 10 " + variant.Name() + " design",
			LogX:  true, LogY: true,
			XLabel: "physical error rate", YLabel: "logical error rate",
			Width: 70, Height: 24,
		}
		for _, d := range ds {
			var xs, ys []float64
			for _, pt := range points {
				if pt.D == d {
					xs = append(xs, pt.P)
					ys = append(ys, pt.PL)
				}
			}
			chart.Add(plot.Series{Name: fmt.Sprintf("d=%d", d), X: xs, Y: ys})
		}
		chart.Add(plot.Series{Name: "PL=p", X: ps, Y: ps})
		fmt.Fprintln(stdout, chart.Render())
	}
	byD := stats.ByDistance(points)
	for _, d := range ds {
		if pth, ok := stats.PseudoThreshold(byD[d]); ok {
			fmt.Fprintf(stdout, "pseudo-threshold d=%d: %.4f (paper: ~0.05, 0.0475, 0.045, 0.035 for d=3,5,7,9)\n", d, pth)
		} else {
			fmt.Fprintf(stdout, "pseudo-threshold d=%d: not crossed in sampled window\n", d)
		}
	}
	if th, ok := stats.AccuracyThreshold(points); ok {
		fmt.Fprintf(stdout, "accuracy threshold: %.4f (paper: ~0.05)\n", th)
	} else {
		fmt.Fprintln(stdout, "accuracy threshold: no curve crossing in sampled window")
	}
	return nil
}
