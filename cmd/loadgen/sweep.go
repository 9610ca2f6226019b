package main

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sfq"
)

// SweepRow is one (scheduler workers, closed-loop clients) point of the
// multi-core service sweep: mixed-distance traffic against an
// in-process server, reporting how full the coalesced batch lanes ran
// (from the serve_batch_lanes histogram) against the client-observed
// latency tail. More workers should drain queues faster — smaller
// coalesced batches, lower p99 — so the two columns together show where
// added cores stop buying latency.
type SweepRow struct {
	Workers       int     `json:"workers"` // scheduler pool size (serve.Config.PoolWorkers)
	Clients       int     `json:"clients"` // closed-loop requesters
	DurationS     float64 `json:"duration_s"`
	OK            int64   `json:"ok"`
	Shed          int64   `json:"shed"`
	Errors        int64   `json:"errors"`
	ThroughputRPS float64 `json:"throughput_rps"`
	Batches       uint64  `json:"batches"`        // drained batch count
	MeanLaneFill  float64 `json:"mean_lane_fill"` // occupied lanes per drained batch
	P50Ns         uint64  `json:"p50_ns"`
	P90Ns         uint64  `json:"p90_ns"`
	P99Ns         uint64  `json:"p99_ns"`
	MeanNs        float64 `json:"mean_ns"`
}

// SweepArtifact is the on-disk schema of a -sweep run.
type SweepArtifact struct {
	Manifest  *obs.Manifest `json:"manifest"`
	ServeRows []SweepRow    `json:"serve_rows"`
}

// sweepDistances is the mixed-distance traffic blend: every request
// draws round-robin from these queues (Z and X planes alternating), so
// one run exercises several mesh sizes concurrently, as the paper's
// shared-decoder deployment would.
var sweepDistances = []int{5, 9, 13}

// runSweep measures the decode service at several scheduler widths and
// writes the rows as its own artifact to out.
// Servers are in-process (requests go straight to Server.Decode), so
// the sweep isolates the queue/drain/scheduler path from transport
// noise and needs no running serve instance.
func runSweep(out string, clients int, dur time.Duration, density float64, seed int64) error {
	// One deterministic syndrome working set per (d, etype) queue.
	type key struct {
		d int
		e lattice.ErrorType
	}
	const nsyns = 128
	synsets := map[key][][]bool{}
	for _, d := range sweepDistances {
		for _, e := range []lattice.ErrorType{lattice.ZErrors, lattice.XErrors} {
			nchecks := lattice.MustNew(d).MatchingGraph(e).NumChecks()
			synID := mc.DeriveID(uint64(d), uint64(e), 0x10ad)
			set := make([][]bool, nsyns)
			for i := range set {
				rng := mc.NewRand(seed, synID, int64(i))
				syn := make([]bool, nchecks)
				for j := range syn {
					syn[j] = rng.Float64() < density
				}
				set[i] = syn
			}
			synsets[key{d, e}] = set
		}
	}

	art := SweepArtifact{Manifest: obs.NewManifest(map[string]any{
		"mode": "sweep", "clients": clients, "duration": dur.String(),
		"density": density, "seed": seed, "distances": sweepDistances,
	})}
	for _, workers := range []int{1, 2, 4, 8} {
		reg := obs.NewRegistry()
		srv := serve.New(serve.Config{
			Variant:     sfq.Final,
			Distances:   sweepDistances,
			PoolWorkers: workers,
			Workers:     workers,
			Registry:    reg,
		})
		hist := obs.NewHistogram()
		var ok, shed, errs atomic.Int64
		var reqID atomic.Uint64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(off int) {
				defer wg.Done()
				for i := off; ; i += clients {
					select {
					case <-stop:
						return
					default:
					}
					d := sweepDistances[i%len(sweepDistances)]
					e := lattice.ZErrors
					if (i/len(sweepDistances))%2 == 1 {
						e = lattice.XErrors
					}
					set := synsets[key{d, e}]
					t0 := time.Now()
					resp := srv.Decode(d, e, reqID.Add(1), set[i%len(set)])
					switch resp.Status {
					case serve.StatusOK:
						hist.Observe(uint64(time.Since(t0)))
						ok.Add(1)
					case serve.StatusShed:
						shed.Add(1)
					default:
						errs.Add(1)
					}
				}
			}(c)
		}
		time.Sleep(dur)
		close(stop)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		if err := srv.Close(); err != nil {
			return err
		}

		lanes := reg.Histogram("serve_batch_lanes").Snapshot()
		sum := hist.Snapshot().Summary()
		row := SweepRow{
			Workers:       workers,
			Clients:       clients,
			DurationS:     elapsed,
			OK:            ok.Load(),
			Shed:          shed.Load(),
			Errors:        errs.Load(),
			ThroughputRPS: float64(ok.Load()) / elapsed,
			Batches:       lanes.Count,
			MeanLaneFill:  lanes.Mean(),
			P50Ns:         sum.P50,
			P90Ns:         sum.P90,
			P99Ns:         sum.P99,
			MeanNs:        sum.Mean,
		}
		art.ServeRows = append(art.ServeRows, row)
		log.Printf("sweep workers=%d: %.0f req/s ok, lane fill %.1f over %d batches, p50 %s p99 %s",
			workers, row.ThroughputRPS, row.MeanLaneFill, row.Batches,
			time.Duration(row.P50Ns), time.Duration(row.P99Ns))
	}
	if err := obs.WriteArtifact(out, art); err != nil {
		return err
	}
	log.Printf("wrote %s (%d serve rows)", out, len(art.ServeRows))
	return nil
}
