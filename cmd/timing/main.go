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
//	       [-hist] [-seed 1] [-workers 0] [-obs :9090] [-batch]
//
// After the Table IV summary, the command closes the loop between the
// measured cycles-to-solution distributions and the §III backlog model:
// for every distance it prints the execution-time slowdown on the
// cuccaro adder under the worst-case model (ModelForDecodes — the
// Fig. 5/6 construction) next to the distribution-aware model
// (backlog.ModelForHistogram over the live sfq_decode_cycles_d*
// histogram), showing how much the single-worst-sample bound
// overstates the steady-state cost.
package main

import (
	"flag"
	"fmt"
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
	cycles := flag.Int("cycles", 4000, "syndrome cycles per (d, p) point")
	distances := flag.String("distances", "3,5,7,9", "code distances")
	rates := flag.String("rates", "0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.10", "physical error rates")
	hist := flag.Bool("hist", false, "also print the Fig. 10(c) cycle histograms")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "concurrent trial shards (0 = GOMAXPROCS)")
	obsAddr := flag.String("obs", "", "serve /metrics, /metrics.json, /manifest.json and /debug/pprof on this address (e.g. :9090)")
	tGen := flag.Float64("tgen", 400, "syndrome generation cycle time in ns for the backlog comparison")
	batch := flag.Bool("batch", false, "pick full-width SWAR meshes over one-lane ones; only the lane count changes (bit-identical results, higher throughput)")
	flag.Parse()

	var ds []int
	if err := parseList(*distances, func(s string) error {
		v, err := strconv.Atoi(s)
		ds = append(ds, v)
		return err
	}); err != nil {
		log.Fatal(err)
	}
	var ps []float64
	if err := parseList(*rates, func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		ps = append(ps, v)
		return err
	}); err != nil {
		log.Fatal(err)
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
			log.Fatal(err)
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
			if *batch {
				return pool.GetBatch(d, lattice.ZErrors)
			}
			return pool.Get(d, lattice.ZErrors)
		},
		FreeDecoder: pool.Release,
		Seed:        *seed,
		Workers:     *workers,
		Observer: func(d int, p float64) func(lattice.ErrorType, sfq.Stats) {
			ms := samples[d]
			return func(e lattice.ErrorType, st sfq.Stats) { ms.observe(st) }
		},
	}); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Table IV — decoder execution time (ns), final design, %d cycles per (d,p)\n\n", *cycles)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
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
		fmt.Println("\nFig. 10(c) — cycles-to-solution distribution (first 21 bins)")
		for _, d := range ds {
			counts := samples[d].counts
			total := 0
			for _, c := range counts {
				total += c
			}
			fmt.Printf("\nd=%d (N=%d)\n", d, total)
			for c := 0; c <= 20; c++ {
				frac := float64(counts[c]) / float64(total)
				fmt.Printf("%3d cycles  %.4f %s\n", c, frac, strings.Repeat("#", int(frac*120)))
			}
		}
	}

	// Close the loop: measured latency distribution -> backlog model.
	adder, err := qprog.Cuccaro(20)
	if err != nil {
		log.Fatal(err)
	}
	isT := backlog.Program(adder.Circuit.Decompose())
	const floorNs = 20 // the paper's worst-case decode bound
	fmt.Printf("\nBacklog model on cuccaro-adder-20, tGen = %.0f ns, floor = %.0f ns\n\n", *tGen, float64(floorNs))
	bw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(bw, "d\tdecode ns (worst)\tdecode ns (dist)\tslowdown (worst)\tslowdown (dist)")
	for _, d := range ds {
		// The per-d cycle histograms accumulate in the process-wide
		// registry as the meshes decode; flush-on-Put already ran when
		// the pool reclaimed the sweep's meshes.
		snap := obs.Default().Histogram(fmt.Sprintf("sfq_decode_cycles_d%d", d)).Snapshot()
		var sts []sfq.Stats
		for c := range samples[d].counts {
			sts = append(sts, sfq.Stats{Cycles: c})
		}
		wm := backlog.ModelForDecodes(*tGen, floorNs, sts)
		hm := backlog.ModelForHistogram(*tGen, floorNs, sfq.CycleTimePs/1000, snap)
		wt, err := wm.Execute(isT)
		if err != nil {
			log.Fatal(err)
		}
		ht, err := hm.Execute(isT)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(bw, "%d\t%.2f\t%.2f\t%.4g\t%.4g\n", d, wm.DecodeNs, hm.DecodeNs, wt.Slowdown(), ht.Slowdown())
	}
	bw.Flush()
}
