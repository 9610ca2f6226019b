// Command compare runs every decoder in the repository head to head on
// identical lifetime workloads: the SFQ mesh (the paper's contribution),
// the software greedy reference, exact minimum-weight perfect matching,
// union-find, exact maximum likelihood (small codes only — bounded by
// mld.MaxDataQubits) and the trained neural decoder (every distance).
// This extends the paper's accuracy discussion (§VIII "Comparison to
// existing approximation techniques") with a single reproducible table.
//
// Trained decoders (mld coset tables, neural MLP training) are built
// once per (decoder, d, p, seed) and shared by all trial shards of that
// row: both decode by read-only table lookups / stateless forward
// passes, so sharing is safe and the rows parallelize like the rest.
//
// All rows run concurrently on the sharded Monte-Carlo engine. Every
// decoder at a given distance uses the same engine point ID, so the
// per-trial error streams are identical across decoders — the
// head-to-head property the table depends on — for any -workers value.
//
// Usage:
//
//	compare [-distances 3,5,7] [-p 0.03] [-cycles 20000] [-seed 1]
//	        [-workers 0]
//	compare -frontier -out PATH [-frontier-p 0.04,0.08,0.12] [-esc-hot 0]
//	        [-strict] [-distances ...] [-cycles ...] [-seed ...]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"

	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mld"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/neural"
	"repro/internal/decoder/unionfind"
	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/sfq"
	"repro/internal/stats"
	"repro/internal/surface"
)

// trainedKey identifies one expensive-to-build decoder instance. Rows
// are parameterized by (d, p, seed), so two sweeps over the same cell
// reuse the instance instead of retraining.
type trainedKey struct {
	name string
	d    int
	p    float64
	seed int64
}

// trainedCache hands out shared trained decoders. Build runs under the
// lock, so concurrent shards of one row train exactly once and the
// rest block until the instance is ready.
type trainedCache struct {
	mu   sync.Mutex
	decs map[trainedKey]decoder.Decoder
}

func (c *trainedCache) get(key trainedKey, build func() (decoder.Decoder, error)) (decoder.Decoder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if dec, ok := c.decs[key]; ok {
		return dec, nil
	}
	dec, err := build()
	if err != nil {
		return nil, err
	}
	if c.decs == nil {
		c.decs = map[trainedKey]decoder.Decoder{}
	}
	c.decs[key] = dec
	return dec, nil
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

// run parses args and runs the decoder table (or, with -frontier, the
// two-level frontier), printing the table to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	distances := fs.String("distances", "3,5,7", "code distances")
	p := fs.Float64("p", 0.03, "physical dephasing rate")
	cycles := fs.Int("cycles", 20000, "syndrome cycles per decoder")
	seed := fs.Int64("seed", 1, "random seed (shared across decoders)")
	workers := fs.Int("workers", 0, "concurrent trial shards (0 = GOMAXPROCS)")
	obsAddr := fs.String("obs", "", "serve /metrics, /metrics.json, /manifest.json and /debug/pprof on this address (e.g. :9090)")
	frontier := fs.Bool("frontier", false, "run the two-level accuracy-vs-latency frontier instead of the decoder table")
	frontierPs := fs.String("frontier-p", "0.04,0.08,0.12", "physical rates of the frontier sweep")
	escHot := fs.Int("esc-hot", 0, "frontier escalation policy: hot-check count threshold (0 = ~30% of checks per distance)")
	out := fs.String("out", "", "frontier artifact path (required with -frontier)")
	strict := fs.Bool("strict", false, "exit nonzero if the frontier property fails at any distance")
	fs.Parse(args)

	var ds []int
	for _, s := range strings.Split(*distances, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		ds = append(ds, v)
	}

	if *frontier {
		if *out == "" {
			return errors.New("-frontier requires -out")
		}
		var fps []float64
		for _, s := range strings.Split(*frontierPs, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return err
			}
			fps = append(fps, v)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		runFrontier(ctx, ds, fps, *cycles, *seed, *escHot, *workers, *out, *strict)
		return nil
	}

	type row struct {
		d    int
		name string
		note string
	}
	var rows []row
	var specs []mc.PointSpec
	add := func(d int, name, note string, shardSize int, newDec func() (decoder.Decoder, error)) {
		rows = append(rows, row{d, name, note})
		build := func() (surface.Config, error) {
			ch, err := noise.NewDephasing(*p)
			if err != nil {
				return surface.Config{}, err
			}
			dec, err := newDec()
			if err != nil {
				return surface.Config{}, err
			}
			return surface.Config{Distance: d, Channel: ch, DecoderZ: dec}, nil
		}
		// Same ID per distance: identical error streams for every decoder.
		specs = append(specs, stats.LifetimeSpec(int64(d), *cycles, shardSize, build))
	}
	pool := sfq.NewPool(sfq.Final)
	cache := &trainedCache{}
	for _, d := range ds {
		d := d
		g := pool.Graph(d, lattice.ZErrors)
		add(d, "sfq-"+sfq.Final.Name(), "online, ~ns latency", 0, func() (decoder.Decoder, error) {
			return pool.GetBatch(d, lattice.ZErrors), nil
		})
		specs[len(specs)-1].Release = stats.ReleaseDecoders(pool.Release)
		add(d, "greedy", "software reference of §V-B", 0, func() (decoder.Decoder, error) {
			return greedy.New(), nil
		})
		add(d, "mwpm", "exact matching (offline)", 0, func() (decoder.Decoder, error) {
			return mwpm.New(), nil
		})
		add(d, "union-find", "almost-linear (offline)", 0, func() (decoder.Decoder, error) {
			return unionfind.New(), nil
		})
		// Trained decoders: the cache builds one shared instance per
		// (name, d, p, seed), so these rows shard in parallel like the
		// rest and repeated -distances entries never retrain.
		if g.Lattice().NumData() <= mld.MaxDataQubits {
			add(d, "ml-exact", "exact maximum likelihood", 0, func() (decoder.Decoder, error) {
				return cache.get(trainedKey{"ml-exact", d, *p, *seed}, func() (decoder.Decoder, error) {
					return mld.New(g, *p)
				})
			})
		}
		add(d, "neural", "greedy + trained MLP stage", 0, func() (decoder.Decoder, error) {
			return cache.get(trainedKey{"neural", d, *p, *seed}, func() (decoder.Decoder, error) {
				return neural.New(g, neural.TrainConfig{P: *p, Samples: 80000, Seed: *seed})
			})
		})
	}

	var reg *obs.Registry
	if *obsAddr != "" {
		srv, err := obs.ServeDefault(*obsAddr, map[string]any{
			"distances": *distances, "p": *p, "cycles": *cycles,
			"seed": *seed, "workers": *workers,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: telemetry on http://%s/metrics\n", srv.Addr)
		reg = obs.Default()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	results, err := mc.Run(ctx, mc.Config{RootSeed: *seed, Workers: *workers, Batch: true, Obs: reg}, specs)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "decoder comparison — pure dephasing p=%g, %d cycles, identical error streams\n\n", *p, *cycles)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "d\tdecoder\tlogical errors\tPL\tnote")
	for i, r := range rows {
		res := results[i]
		pl := 0.0
		if res.Trials > 0 {
			pl = float64(res.Failures) / float64(res.Trials)
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%.5f\t%s\n", r.d, r.name, res.Failures, pl, r.note)
	}
	w.Flush()
	fmt.Fprintln(stdout, "\nthe SFQ mesh trades a constant-factor accuracy loss for four orders")
	fmt.Fprintln(stdout, "of magnitude in latency — the paper's central engineering trade.")
	return nil
}
