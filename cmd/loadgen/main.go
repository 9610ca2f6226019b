// Command loadgen drives a running serve instance with open-loop
// Poisson traffic and writes the latency/shedding curve as a BENCH
// artifact, so the service's p99-vs-offered-load behavior is tracked
// the same way the kernel benchmarks are.
//
// The run has two phases. Calibration floods the server closed-loop
// (a fixed population of back-to-back requesters) to estimate its
// decode capacity R; the measurement then replays open-loop Poisson
// arrivals at offered rates R/2, R and 2R — straddling saturation on
// whatever machine this runs on — unless -rates pins explicit values.
// Latency is measured from each request's *scheduled* arrival time, so
// a stalled sender cannot hide queueing delay (no coordinated
// omission), and only StatusOK responses enter the histogram — shed
// responses return fast and would flatter the tail.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:9000 -out PATH [-d 9] [-etype z] [-conns 4]
//	        [-duration 2s] [-rates 1000,5000,10000] [-max-rate 50000]
//	        [-density 0.08] [-seed 1]
//	        [-trace-http http://127.0.0.1:9090 [-trace-check]]
//
// With -trace-http set, loadgen scrapes the server's /debug/traces
// flight recorder after the sweep and adds the per-stage latency
// decomposition to the artifact's trace section — stage p50/p99 rows,
// the embedded PR 9 baseline with a before/after comparison, the
// worst-10 traces by wall time, and every captured shed/drop decision.
// -trace-check makes the scrape's acceptance checks (≥1 shed decision
// with controller inputs, ≥1 shed decision carrying weight/sojourn
// inputs, ≥1 outlier the recorder counted at finalize as having stage
// durations that sum to its wall time, and serve_queue_wait_ns p99 ≥20%
// under the embedded baseline row) fatal once
// the artifact is written; it requires -trace-http.
//
// With -sweep, loadgen instead measures an in-process server at several
// scheduler widths (workers × mixed-distance closed-loop traffic) and
// writes lane-fill vs p99 rows as its own artifact:
//
//	loadgen -sweep -out PATH [-sweep-clients 16] [-duration 2s]
//	        [-density 0.08] [-seed 1]
package main

import (
	"flag"
	"log"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/knob"
	"repro/internal/lattice"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Artifact is the on-disk schema of a rate-mode run.
type Artifact struct {
	Manifest      *obs.Manifest `json:"manifest"`
	CalibratedRPS float64       `json:"calibrated_rps"`
	// ClientFlushes counts socket flushes across every client for the
	// whole run; Sent / ClientFlushes is the pipelining batch factor
	// (1.0 before the batched-flush client fix).
	ClientFlushes uint64 `json:"client_flushes"`
	Rows          []Row  `json:"rows"`
	// Trace is the /debug/traces decomposition, present when the run
	// scraped the server (-trace-http).
	Trace *TraceSection `json:"trace,omitempty"`
}

// Row is one offered-load point of the latency/shedding curve.
type Row struct {
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"` // OK responses per wall second
	DurationS   float64 `json:"duration_s"`
	Sent        int64   `json:"sent"`
	OK          int64   `json:"ok"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	Escalated   int64   `json:"escalated"` // OK responses flagged for level-2 re-decode
	ShedRate    float64 `json:"shed_rate"`
	EscRate     float64 `json:"esc_rate"` // Escalated / OK
	P50Ns       uint64  `json:"p50_ns"`
	P90Ns       uint64  `json:"p90_ns"`
	P99Ns       uint64  `json:"p99_ns"`
	MeanNs      float64 `json:"mean_ns"`
	MaxNs       uint64  `json:"max_ns"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := knob.CheckEnv(); err != nil {
		log.Fatal(err)
	}

	addr := flag.String("addr", "", "serve framed-TCP address (required)")
	d := flag.Int("d", 9, "code distance to request")
	etype := flag.String("etype", "z", "error type: z or x")
	conns := flag.Int("conns", 4, "client connections")
	duration := flag.Duration("duration", 2*time.Second, "measurement time per offered rate")
	ratesFlag := flag.String("rates", "", "explicit offered rates (req/s), else R/2,R,2R from calibration")
	maxRate := flag.Float64("max-rate", 50000, "cap on the calibrated rate (bounds goroutine fan-out)")
	density := flag.Float64("density", 0.08, "per-check hot probability of generated syndromes")
	seed := flag.Int64("seed", 1, "root seed of the syndrome and arrival streams")
	out := flag.String("out", "", "artifact path (required)")
	sweep := flag.Bool("sweep", false, "run the in-process multi-core sweep instead (workers × mixed-distance lane-fill/p99 rows)")
	sweepClients := flag.Int("sweep-clients", 16, "closed-loop requesters per sweep point")
	traceHTTP := flag.String("trace-http", "", "serve HTTP base URL (http://host:port) to scrape /debug/traces from into the artifact")
	traceCheck := flag.Bool("trace-check", false, "fail if the trace scrape misses a shed decision or a consistent outlier trace (requires -trace-http)")
	flag.Parse()
	if *out == "" {
		log.Fatal("-out is required")
	}
	if *sweep {
		if *traceHTTP != "" || *traceCheck {
			log.Fatal("-trace-http and -trace-check apply to rate mode, not -sweep")
		}
		if err := runSweep(*out, *sweepClients, *duration, *density, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *addr == "" {
		log.Fatal("-addr is required")
	}
	if *traceCheck && *traceHTTP == "" {
		log.Fatal("-trace-check requires -trace-http")
	}
	var e lattice.ErrorType
	switch *etype {
	case "z":
		e = lattice.ZErrors
	case "x":
		e = lattice.XErrors
	default:
		log.Fatalf("etype %q is not z or x", *etype)
	}

	// A fixed deterministic syndrome working set: the run measures the
	// service, not syndrome generation.
	nchecks := lattice.MustNew(*d).MatchingGraph(e).NumChecks()
	const nsyns = 256
	syns := make([][]bool, nsyns)
	synID := mc.DeriveID(uint64(*d), uint64(e), 0x10ad)
	for i := range syns {
		rng := mc.NewRand(*seed, synID, int64(i))
		syn := make([]bool, nchecks)
		for j := range syn {
			syn[j] = rng.Float64() < *density
		}
		syns[i] = syn
	}

	clients := make([]*serve.Client, *conns)
	for i := range clients {
		c, err := serve.Dial(*addr)
		if err != nil {
			log.Fatalf("dial %s: %v", *addr, err)
		}
		clients[i] = c
		defer c.Close()
	}

	var rates []float64
	calibrated := 0.0
	if *ratesFlag != "" {
		for _, f := range strings.Split(*ratesFlag, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || r <= 0 {
				log.Fatalf("bad rate %q", f)
			}
			rates = append(rates, r)
		}
	} else {
		calibrated = calibrate(clients, *d, e, syns, *maxRate)
		log.Printf("calibrated capacity ~%.0f req/s", calibrated)
		rates = []float64{calibrated / 2, calibrated, 2 * calibrated}
	}

	art := Artifact{
		Manifest: obs.NewManifest(map[string]any{
			"addr": *addr, "d": *d, "etype": *etype, "conns": *conns,
			"duration": duration.String(), "density": *density, "seed": *seed,
		}),
		CalibratedRPS: calibrated,
	}
	for i, rps := range rates {
		row := runRate(clients, *d, e, syns, rps, *duration, *seed, int64(i))
		log.Printf("offered %.0f/s: achieved %.0f/s ok, shed %.1f%%, escalated %.1f%%, p50 %s p99 %s",
			row.OfferedRPS, row.AchievedRPS, 100*row.ShedRate, 100*row.EscRate,
			time.Duration(row.P50Ns), time.Duration(row.P99Ns))
		art.Rows = append(art.Rows, row)
	}
	for _, c := range clients {
		art.ClientFlushes += c.Flushes()
	}

	// A failed scrape or trace check still writes the rate rows, so the
	// failure's evidence reaches disk.
	var scrapeErr error
	if *traceHTTP != "" {
		art.Trace, scrapeErr = scrapeTraces(*traceHTTP)
	}
	if err := obs.WriteArtifact(*out, art); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
	if scrapeErr != nil {
		log.Fatal(scrapeErr)
	}
	if *traceCheck {
		if err := art.Trace.check(); err != nil {
			log.Fatal(err)
		}
	}
}

// calibrate estimates the server's decode capacity: a closed loop of
// back-to-back requesters (16 per connection) for half a second, OK
// responses per wall second, capped at maxRate.
func calibrate(clients []*serve.Client, d int, e lattice.ErrorType, syns [][]bool, maxRate float64) float64 {
	const per = 16
	var ok atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		for w := 0; w < per; w++ {
			wg.Add(1)
			go func(c *serve.Client, off int) {
				defer wg.Done()
				for i := off; ; i += per {
					select {
					case <-stop:
						return
					default:
					}
					resp, err := c.Do(&serve.Request{D: d, EType: e, Syndrome: syns[i%len(syns)]})
					if err != nil {
						return
					}
					if resp.Status == serve.StatusOK {
						ok.Add(1)
					}
				}
			}(c, ci*per+w)
		}
	}
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()
	r := float64(ok.Load()) / time.Since(start).Seconds()
	if r < 1 {
		r = 1
	}
	if r > maxRate {
		r = maxRate
	}
	return r
}

// runRate replays one open-loop Poisson arrival process at the offered
// rate and summarizes what came back.
func runRate(clients []*serve.Client, d int, e lattice.ErrorType, syns [][]bool,
	rps float64, dur time.Duration, seed, point int64) Row {
	rng := mc.NewRand(seed, mc.DeriveID(0xa881, uint64(point)), 0)
	hist := obs.NewHistogram()
	var ok, shed, errs, escalated atomic.Int64
	var wg sync.WaitGroup

	start := time.Now()
	deadline := start.Add(dur)
	next := start
	sent := int64(0)
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / rps * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		// Pace against the schedule, but never skip a late arrival: a
		// sender running behind dispatches immediately and the latency
		// clock still starts at the scheduled instant.
		if until := time.Until(next); until > 0 {
			time.Sleep(until)
		}
		c := clients[int(sent)%len(clients)]
		syn := syns[int(sent)%len(syns)]
		arrival := next
		sent++
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Do(&serve.Request{D: d, EType: e, Syndrome: syn})
			if err != nil {
				errs.Add(1)
				return
			}
			switch resp.Status {
			case serve.StatusOK:
				hist.Observe(uint64(time.Since(arrival)))
				ok.Add(1)
				if resp.Escalated {
					escalated.Add(1)
				}
			case serve.StatusShed:
				shed.Add(1)
			default:
				errs.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sum := hist.Snapshot().Summary()
	row := Row{
		OfferedRPS:  rps,
		AchievedRPS: float64(ok.Load()) / elapsed,
		DurationS:   elapsed,
		Sent:        sent,
		OK:          ok.Load(),
		Shed:        shed.Load(),
		Errors:      errs.Load(),
		Escalated:   escalated.Load(),
		P50Ns:       sum.P50,
		P90Ns:       sum.P90,
		P99Ns:       sum.P99,
		MeanNs:      sum.Mean,
		MaxNs:       sum.Max,
	}
	if sent > 0 {
		row.ShedRate = float64(row.Shed) / float64(sent)
	}
	if row.OK > 0 {
		row.EscRate = float64(row.Escalated) / float64(row.OK)
	}
	return row
}
