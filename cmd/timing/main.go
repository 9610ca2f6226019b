// Command timing regenerates Table IV (decoder execution time per code
// distance across all simulated error rates) and Fig. 10(c) (the
// cycles-to-solution distributions), by running lifetime simulations
// with the final SFQ design and recording every mesh invocation.
//
// The sweep runs on the sharded Monte-Carlo engine: all (d, p) points
// and their trial shards execute in parallel, and mesh samples are
// collected through the observer hook. Sample sets are sorted before
// summarizing, so the table is reproducible for any -workers value.
//
// Usage:
//
//	timing [-cycles 4000] [-distances 3,5,7,9] [-rates 0.01,...]
//	       [-hist] [-seed 1] [-workers 0] [-obs :9090]
//
// After the Table IV summary, the command closes the loop between the
// measured cycles-to-solution distributions and the §III backlog model:
// for every distance it prints the execution-time slowdown on the
// cuccaro adder under the worst-case model (ModelForDecodes — the
// Fig. 5/6 construction) next to the distribution-aware model
// (backlog.ModelForHistogram over the run's cycles-to-solution
// histogram), showing how much the single-worst-sample bound
// overstates the steady-state cost.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/backlog"
	"repro/internal/decoder"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/qprog"
	"repro/internal/sfq"
	"repro/internal/stats"
)

func parseList(s string, f func(string) error) error {
	for _, part := range strings.Split(s, ",") {
		if err := f(strings.TrimSpace(part)); err != nil {
			return err
		}
	}
	return nil
}

// meshSamples collects observer samples for one code distance. Points
// of the same distance at different rates report concurrently, so the
// collector locks around every append.
type meshSamples struct {
	mu     sync.Mutex
	times  []float64
	counts map[int]int
}

func (ms *meshSamples) observe(st sfq.Stats) {
	ms.mu.Lock()
	ms.times = append(ms.times, st.TimeNs())
	ms.counts[st.Cycles]++
	ms.mu.Unlock()
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

// run parses args, runs the sweep and prints Table IV, the optional
// histograms and the backlog comparison to stdout. -obs reports on
// stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	cycles := fs.Int("cycles", 4000, "syndrome cycles per (d, p) point")
	distances := fs.String("distances", "3,5,7,9", "code distances")
	rates := fs.String("rates", "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.10", "physical error rates")
	hist := fs.Bool("hist", false, "also print the Fig. 10(c) cycle histograms")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 0, "concurrent trial shards (0 = GOMAXPROCS)")
	obsAddr := fs.String("obs", "", "serve /metrics, /metrics.json, /manifest.json and /debug/pprof on this address (e.g. :9090)")
	tGen := fs.Float64("tgen", 400, "syndrome generation cycle time in ns for the backlog comparison")
	fs.Parse(args)

	var ds []int
	if err := parseList(*distances, func(s string) error {
		v, err := strconv.Atoi(s)
		ds = append(ds, v)
		return err
	}); err != nil {
		return err
	}
	var ps []float64
	if err := parseList(*rates, func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		ps = append(ps, v)
		return err
	}); err != nil {
		return err
	}

	samples := map[int]*meshSamples{}
	for _, d := range ds {
		samples[d] = &meshSamples{counts: map[int]int{}}
	}
	var reg *obs.Registry
	if *obsAddr != "" {
		srv, err := obs.ServeDefault(*obsAddr, map[string]any{
			"cycles": *cycles, "distances": *distances, "rates": *rates,
			"seed": *seed, "workers": *workers, "tgen": *tGen,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s/metrics\n", srv.Addr)
		reg = obs.Default()
	}
	pool := sfq.NewPool(sfq.Final)
	if _, err := stats.Curves(stats.CurveConfig{
		Obs:        reg,
		Distances:  ds,
		Rates:      ps,
		Cycles:     *cycles,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder {
			return pool.GetBatch(d, lattice.ZErrors)
		},
		FreeDecoder: pool.Release,
		Seed:        *seed,
		Workers:     *workers,
		Observer: func(d int, p float64) func(lattice.ErrorType, sfq.Stats) {
			ms := samples[d]
			return func(e lattice.ErrorType, st sfq.Stats) { ms.observe(st) }
		},
	}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Table IV — decoder execution time (ns), final design, %d cycles per (d,p)\n\n", *cycles)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\tmax\tp99.9\taverage\tstd dev\tdecodes\t(paper max/avg/std)")
	paper := map[int][3]float64{
		3: {3.74, 0.28, 0.58},
		5: {9.28, 0.72, 1.09},
		7: {14.2, 2.00, 1.99},
		9: {19.2, 3.81, 3.11},
	}
	for _, d := range ds {
		times := samples[d].times
		sort.Float64s(times) // shard completion order varies; the summary must not
		s := stats.Summarize(times)
		row := fmt.Sprintf("%d\t%.2f\t%.2f\t%.2f\t%.2f\t%d", d, s.Max, stats.Percentile(times, 0.999), s.Mean, s.StdDev, s.N)
		if pp, ok := paper[d]; ok {
			row += fmt.Sprintf("\t(%.2f/%.2f/%.2f)", pp[0], pp[1], pp[2])
		}
		fmt.Fprintln(w, row)
	}
	w.Flush()

	if *hist {
		fmt.Fprintln(stdout, "\nFig. 10(c) — cycles-to-solution distribution (first 21 bins)")
		for _, d := range ds {
			counts := samples[d].counts
			total := 0
			for _, c := range counts {
				total += c
			}
			fmt.Fprintf(stdout, "\nd=%d (N=%d)\n", d, total)
			for c := 0; c <= 20; c++ {
				frac := float64(counts[c]) / float64(total)
				fmt.Fprintf(stdout, "%3d cycles  %.4f %s\n", c, frac, strings.Repeat("#", int(frac*120)))
			}
		}
	}

	// Close the loop: measured latency distribution -> backlog model.
	adder, err := qprog.Cuccaro(20)
	if err != nil {
		return err
	}
	isT := backlog.Program(adder.Circuit.Decompose())
	const floorNs = 20 // the paper's worst-case decode bound
	fmt.Fprintf(stdout, "\nBacklog model on cuccaro-adder-20, tGen = %.0f ns, floor = %.0f ns\n\n", *tGen, float64(floorNs))
	bw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(bw, "d\tdecode ns (worst)\tdecode ns (dist)\tslowdown (worst)\tslowdown (dist)")
	for _, d := range ds {
		// Both models read this run's samples only: the process-wide
		// sfq_decode_cycles_d* histograms also hold every earlier
		// sweep's decodes.
		var sts []sfq.Stats
		h := obs.NewHistogram()
		for c, n := range samples[d].counts {
			sts = append(sts, sfq.Stats{Cycles: c})
			h.ObserveN(uint64(c), uint64(n))
		}
		snap := h.Snapshot()
		wm := backlog.ModelForDecodes(*tGen, floorNs, sts)
		hm := backlog.ModelForHistogram(*tGen, floorNs, sfq.CycleTimePs/1000, snap)
		wt, err := wm.Execute(isT)
		if err != nil {
			return err
		}
		ht, err := hm.Execute(isT)
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "%d\t%.2f\t%.2f\t%.4g\t%.4g\n", d, wm.DecodeNs, hm.DecodeNs, wt.Slowdown(), ht.Slowdown())
	}
	bw.Flush()
	return nil
}
