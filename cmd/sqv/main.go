// Command sqv regenerates the Fig. 1 Simple-Quantum-Volume analysis:
// the raw volume of a NISQ machine, the per-distance AQEC operating
// points, and the boost factors versus the 10^5 NISQ target.
//
// Usage:
//
//	sqv [-qubits 1024] [-p 1e-5] [-empirical] [-obs :9090]
//
// With -empirical the command additionally validates the 1/(K·PL)
// stopping-time accounting at an elevated error rate: a K-tile machine
// of SFQ-decoded logical qubits runs Monte-Carlo until first failure
// and the measured mean cycles-to-failure is printed next to the
// analytic prediction. -obs serves the run's live telemetry.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/decoder"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sfq"
	"repro/internal/sqv"
	"repro/internal/stats"
)

func main() {
	if err := knob.CheckEnv(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args and prints the SQV table, the best operating point
// and, with -empirical, the stopping-time check to stdout. -obs reports
// on stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	qubits := fs.Int("qubits", 1024, "physical qubits")
	p := fs.Float64("p", 1e-5, "physical error rate")
	empirical := fs.Bool("empirical", false, "validate 1/(K·PL) with a Monte-Carlo stopping-time run")
	empP := fs.Float64("emp-p", 0.04, "elevated physical rate for the empirical run")
	empTrials := fs.Int("emp-trials", 200, "stopping-time trials for the empirical run")
	seed := fs.Int64("seed", 1, "random seed for the empirical run")
	workers := fs.Int("workers", 0, "concurrent trial shards (0 = GOMAXPROCS)")
	obsAddr := fs.String("obs", "", "serve /metrics, /metrics.json, /manifest.json and /debug/pprof on this address (e.g. :9090)")
	fs.Parse(args)

	var reg *obs.Registry
	if *obsAddr != "" {
		srv, err := obs.ServeDefault(*obsAddr, map[string]any{
			"qubits": *qubits, "p": *p, "empirical": *empirical,
			"emp_p": *empP, "emp_trials": *empTrials, "seed": *seed,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s/metrics\n", srv.Addr)
		reg = obs.Default()
	}

	m := sqv.Machine{PhysicalQubits: *qubits, ErrorRate: *p}
	fit := sqv.NISQPlusFit()
	fmt.Fprintf(stdout, "Fig. 1 — SQV boost for a %d-qubit machine at p=%g\n\n", *qubits, *p)
	fmt.Fprintf(stdout, "raw machine SQV (no correction): %.3g\n", m.RawSQV())
	fmt.Fprintf(stdout, "NISQ target SQV: %.0g\n\n", sqv.NISQTargetSQV)

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\tlogical qubits\tPL\tgates/qubit\tSQV\tboost vs target")
	for _, d := range []int{3, 5, 7, 9} {
		if *qubits/sqv.QubitsPerLogical(d) < 1 {
			continue
		}
		plan, err := m.PlanAt(fit, d)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%.3g\t%.3g\t%.3g\t%.0f\n",
			plan.Distance, plan.LogicalQubits, plan.LogicalError,
			plan.GatesPerQubit, plan.SQV, plan.BoostVsTarget)
	}
	w.Flush()

	best, err := m.Best(fit)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nbest operating point: d=%d, SQV %.3g, boost %.0f\n", best.Distance, best.SQV, best.BoostVsTarget)
	fmt.Fprintln(stdout, "(paper: d=3 gives 78 logical qubits, SQV 3.4e8, boost 3402;")
	fmt.Fprintln(stdout, " d=5 gives 40 logical qubits, SQV 1.12e9, boost 11163)")

	if !*empirical {
		return nil
	}
	// Empirical validation of the SQV accounting at an elevated rate
	// where failures are observable in a short run: K SFQ-decoded tiles
	// advanced until first logical fault.
	const d, k, maxCycles = 3, 2, 4000
	pool := sfq.NewPool(sfq.Final)
	m2, err := sqv.NewMachineSim(sqv.SimConfig{
		LogicalQubits: k, Distance: d, P: *empP,
		NewDecoderZ: func(d int) decoder.Decoder { return pool.Get(d, lattice.ZErrors) },
		Seed:        *seed,
		Workers:     *workers,
		FreeDecoder: pool.Release,
		Obs:         reg,
	})
	if err != nil {
		return err
	}
	mean, err := m2.MeanCyclesToFailure(context.Background(), *empTrials, maxCycles)
	if err != nil {
		return err
	}
	// Analytic prediction from a single-tile lifetime measurement at
	// the same rate: gates/qubit = 1/(K·PL).
	pts, err := stats.Curves(stats.CurveConfig{
		Distances:  []int{d},
		Rates:      []float64{*empP},
		Cycles:     8000,
		NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
		NewDecoderZ: func(d int) decoder.Decoder {
			return pool.GetBatch(d, lattice.ZErrors)
		},
		FreeDecoder: pool.Release,
		Seed:        *seed,
		Workers:     *workers,
		Obs:         reg,
	})
	if err != nil {
		return err
	}
	pl := pts[0].PL
	fmt.Fprintf(stdout, "\nempirical stopping time: K=%d, d=%d, p=%g\n", k, d, *empP)
	fmt.Fprintf(stdout, "measured mean cycles to failure: %.1f (%d trials)\n", mean, *empTrials)
	if pl > 0 {
		fmt.Fprintf(stdout, "analytic 1/(K·PL): %.1f (PL=%.5f)\n", 1/(float64(k)*pl), pl)
	} else {
		fmt.Fprintln(stdout, "analytic 1/(K·PL): PL measured as 0 — raise -emp-p or trials")
	}
	return nil
}
