// Benchmarks regenerating each table and figure of the NISQ+ evaluation
// (scaled-down Monte-Carlo sizes; the cmd/ binaries run the full
// versions). Key quantities are attached to each benchmark via
// ReportMetric so `go test -bench . -benchmem` prints the series the
// paper reports.
package repro_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/backlog"
	"repro/internal/core"
	"repro/internal/decodepool"
	"repro/internal/decoder"
	"repro/internal/decoder/greedy"
	"repro/internal/decoder/mld"
	"repro/internal/decoder/mwpm"
	"repro/internal/decoder/neural"
	"repro/internal/decoder/unionfind"
	"repro/internal/lattice"
	"repro/internal/noise"
	"repro/internal/obs"
	"repro/internal/pauli"
	"repro/internal/qprog"
	"repro/internal/rotated"
	"repro/internal/sfq"
	"repro/internal/sfq/oracle"
	"repro/internal/sfqchip"
	"repro/internal/spacetime"
	"repro/internal/sqv"
	"repro/internal/stats"
	"repro/internal/surface"
	"repro/internal/tradeoff"
)

// BenchmarkFig1SQV evaluates the Fig. 1 SQV boost for the paper's
// 1,024-qubit, p=1e-5 machine at d=3 and d=5.
func BenchmarkFig1SQV(b *testing.B) {
	m := sqv.Machine{PhysicalQubits: 1024, ErrorRate: 1e-5}
	fit := sqv.NISQPlusFit()
	var boost3, boost5 float64
	for i := 0; i < b.N; i++ {
		p3, err := m.PlanAt(fit, 3)
		if err != nil {
			b.Fatal(err)
		}
		p5, err := m.PlanAt(fit, 5)
		if err != nil {
			b.Fatal(err)
		}
		boost3, boost5 = p3.BoostVsTarget, p5.BoostVsTarget
	}
	b.ReportMetric(boost3, "boost@d3")
	b.ReportMetric(boost5, "boost@d5")
}

// BenchmarkFig5Backlog traces the Cuccaro adder at processing ratio 2:
// the exponential wall-clock blow-up of §III.
func BenchmarkFig5Backlog(b *testing.B) {
	ad, err := qprog.Cuccaro(20)
	if err != nil {
		b.Fatal(err)
	}
	prog := backlog.Program(ad.Circuit.Decompose())
	m := backlog.Model{SyndromeCycleNs: 400, DecodeNs: 800}
	var slow float64
	for i := 0; i < b.N; i++ {
		tr, err := m.Execute(prog)
		if err != nil {
			b.Fatal(err)
		}
		slow = tr.Slowdown()
	}
	b.ReportMetric(math.Log10(slow), "log10-slowdown")
	b.ReportMetric(float64(len(prog)), "gates")
}

// BenchmarkFig6RunningTime sweeps all five Table I benchmarks across
// decoder processing ratios.
func BenchmarkFig6RunningTime(b *testing.B) {
	benches, err := qprog.Benchmarks()
	if err != nil {
		b.Fatal(err)
	}
	ratios := []float64{0.5, 1.0, 1.5, 2.0}
	for i := 0; i < b.N; i++ {
		for _, bench := range benches {
			if _, err := backlog.Sweep(backlog.Program(bench.Circuit), 400, ratios); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1Circuits generates and decomposes the five benchmark
// circuits.
func BenchmarkTable1Circuits(b *testing.B) {
	var tGates int
	for i := 0; i < b.N; i++ {
		benches, err := qprog.Benchmarks()
		if err != nil {
			b.Fatal(err)
		}
		tGates = 0
		for _, bench := range benches {
			tGates += bench.Stats.TGates
		}
	}
	b.ReportMetric(float64(tGates), "total-T")
}

// lifetimePL runs a small lifetime simulation and returns PL.
func lifetimePL(b *testing.B, d int, p float64, v sfq.Variant, cycles int, seed int64) float64 {
	b.Helper()
	ch, err := noise.NewDephasing(p)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := surface.New(surface.Config{
		Distance: d,
		Channel:  ch,
		DecoderZ: sfq.New(lattice.MustNew(d).MatchingGraph(lattice.ZErrors), v),
		Seed:     seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.Run(cycles)
	if err != nil {
		b.Fatal(err)
	}
	return res.PL
}

// BenchmarkFig10Final measures the final design's logical error rate per
// distance at p = 4% (just below the pseudo-threshold band).
func BenchmarkFig10Final(b *testing.B) {
	for _, d := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var pl float64
			for i := 0; i < b.N; i++ {
				pl = lifetimePL(b, d, 0.04, sfq.Final, 2000, int64(i))
			}
			b.ReportMetric(pl, "PL@4%")
		})
	}
}

// BenchmarkFig10Variants measures the incremental designs of the top row
// at d = 5, p = 4%.
func BenchmarkFig10Variants(b *testing.B) {
	for _, v := range []sfq.Variant{sfq.Baseline, sfq.WithReset, sfq.WithBoundary, sfq.Final} {
		b.Run(v.Name(), func(b *testing.B) {
			var pl float64
			for i := 0; i < b.N; i++ {
				pl = lifetimePL(b, 5, 0.04, v, 1500, int64(i))
			}
			b.ReportMetric(pl, "PL@4%")
		})
	}
}

// BenchmarkTable4Timing collects decoder execution-time statistics per
// distance (Table IV) and the Fig. 10(c) cycle distributions.
func BenchmarkTable4Timing(b *testing.B) {
	for _, d := range []int{3, 5, 7, 9} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			var max, mean float64
			for i := 0; i < b.N; i++ {
				var times []float64
				ch, err := noise.NewDephasing(0.05)
				if err != nil {
					b.Fatal(err)
				}
				sim, err := surface.New(surface.Config{
					Distance: d,
					Channel:  ch,
					DecoderZ: sfq.New(lattice.MustNew(d).MatchingGraph(lattice.ZErrors), sfq.Final),
					Seed:     int64(i),
					Observer: func(e lattice.ErrorType, st sfq.Stats) {
						times = append(times, st.TimeNs())
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(1500); err != nil {
					b.Fatal(err)
				}
				s := stats.Summarize(times)
				max, mean = s.Max, s.Mean
			}
			b.ReportMetric(max, "max-ns")
			b.ReportMetric(mean, "avg-ns")
		})
	}
}

// BenchmarkTable3Synthesis characterizes the decoder subcircuits.
func BenchmarkTable3Synthesis(b *testing.B) {
	var area float64
	for i := 0; i < b.N; i++ {
		for _, r := range sfqchip.TableIII() {
			if r.Name == "Full Circuit" {
				area = r.AreaUm2
			}
		}
	}
	b.ReportMetric(area/1e6, "module-mm2")
}

// BenchmarkTable5Fit fits the c2 model on a small below-threshold sweep.
func BenchmarkTable5Fit(b *testing.B) {
	var c2 float64
	for i := 0; i < b.N; i++ {
		points, err := stats.Curves(stats.CurveConfig{
			Distances:  []int{3},
			Rates:      []float64{0.02, 0.03, 0.04},
			Cycles:     3000,
			NewChannel: func(p float64) (noise.Channel, error) { return noise.NewDephasing(p) },
			NewDecoderZ: func(d int) decoder.Decoder {
				return sfq.New(lattice.MustNew(d).MatchingGraph(lattice.ZErrors), sfq.Final)
			},
			Seed:    int64(i),
			Workers: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		_, got, err := stats.FitC2(points, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		c2 = got
	}
	b.ReportMetric(c2, "c2@d3")
}

// BenchmarkFig11Tradeoff sweeps the required-code-distance comparison.
func BenchmarkFig11Tradeoff(b *testing.B) {
	cfg := tradeoff.DefaultConfig()
	rates := []float64{1e-5, 1e-4, 1e-3, 1e-2}
	var gap float64
	for i := 0; i < b.N; i++ {
		pts, err := tradeoff.Figure11(tradeoff.PaperDecoders(), rates, cfg)
		if err != nil {
			b.Fatal(err)
		}
		var dSfq, dNnet int
		for _, pt := range pts {
			if pt.P == 1e-4 && pt.Feasible {
				switch pt.Decoder {
				case "sfq":
					dSfq = pt.Distance
				case "nnet":
					dNnet = pt.Distance
				}
			}
		}
		gap = float64(dNnet) / float64(dSfq)
	}
	b.ReportMetric(gap, "offline/online-d")
}

// BenchmarkDecoders compares per-round decode latency of every decoder
// implementation on identical d=9 syndromes at p = 5%.
func BenchmarkDecoders(b *testing.B) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	rng := noise.NewRand(5)
	ch, err := noise.NewDephasing(0.05)
	if err != nil {
		b.Fatal(err)
	}
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	syndromes := make([][]bool, 64)
	for i := range syndromes {
		f := pauli.NewFrame(l.NumQubits())
		ch.Sample(rng, f, targets)
		syndromes[i] = g.Syndrome(f)
	}
	decoders := []decoder.Decoder{
		sfq.New(g, sfq.Final),
		greedy.New(),
		mwpm.New(),
		unionfind.New(),
	}
	for _, dec := range decoders {
		b.Run(dec.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(g, syndromes[i%len(syndromes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSystemLifetime exercises the full core façade.
func BenchmarkSystemLifetime(b *testing.B) {
	sys, err := core.New(core.Config{Distance: 5, PhysicalError: 0.03, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	var pl float64
	for i := 0; i < b.N; i++ {
		rep, err := sys.RunLifetime(1000)
		if err != nil {
			b.Fatal(err)
		}
		pl = rep.PL
	}
	b.ReportMetric(pl, "PL")
}

// BenchmarkRotatedLayout compares the lifetime of the rotated layout
// extension against the paper's unrotated layout at d = 5.
func BenchmarkRotatedLayout(b *testing.B) {
	code, err := rotated.New(5)
	if err != nil {
		b.Fatal(err)
	}
	var pl float64
	for i := 0; i < b.N; i++ {
		res, err := code.LifetimeMC(context.Background(), 0.03, 2000, rotated.Exact, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		pl = res.PL
	}
	b.ReportMetric(pl, "PL@3%")
	b.ReportMetric(float64(code.NumData()+code.NumChecks()*2), "qubits~")
}

// BenchmarkSpacetime runs the measurement-noise extension.
func BenchmarkSpacetime(b *testing.B) {
	var pl float64
	for i := 0; i < b.N; i++ {
		res, err := spacetime.Sweep(context.Background(), []spacetime.Config{{
			Distance: 5, P: 0.01, Q: 0.01, Rounds: 5, Method: spacetime.Exact,
		}}, 300, int64(i), 1)
		if err != nil {
			b.Fatal(err)
		}
		pl = res[0].PL
	}
	b.ReportMetric(pl, "PL/block")
}

// BenchmarkSmallDecoders covers the d=3-only baselines: exact maximum
// likelihood and the trained neural decoder.
func BenchmarkSmallDecoders(b *testing.B) {
	l := lattice.MustNew(3)
	g := l.MatchingGraph(lattice.ZErrors)
	ml, err := mld.New(g, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	nn, err := neural.New(g, neural.TrainConfig{P: 0.05, Samples: 20000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRand(9)
	ch, err := noise.NewDephasing(0.05)
	if err != nil {
		b.Fatal(err)
	}
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	syndromes := make([][]bool, 64)
	for i := range syndromes {
		f := pauli.NewFrame(l.NumQubits())
		ch.Sample(rng, f, targets)
		syndromes[i] = g.Syndrome(f)
	}
	for _, dec := range []decoder.Decoder{ml, nn} {
		b.Run(dec.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dec.Decode(g, syndromes[i%len(syndromes)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkErasureDecoding exercises the linear-time erasure peeler.
func BenchmarkErasureDecoding(b *testing.B) {
	l := lattice.MustNew(9)
	g := l.MatchingGraph(lattice.ZErrors)
	u := unionfind.New()
	ch, err := noise.NewErasure(0.2, pauli.Z)
	if err != nil {
		b.Fatal(err)
	}
	rng := noise.NewRand(11)
	var targets []int
	for _, s := range l.DataSites() {
		targets = append(targets, l.QubitIndex(s))
	}
	type caseT struct {
		erased []bool
		syn    []bool
	}
	cases := make([]caseT, 32)
	for i := range cases {
		f := pauli.NewFrame(l.NumQubits())
		mask := ch.SampleErasure(rng, f, targets)
		erased := make([]bool, l.NumQubits())
		for k, e := range mask {
			if e {
				erased[targets[k]] = true
			}
		}
		cases[i] = caseT{erased: erased, syn: g.Syndrome(f)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		if _, err := u.DecodeErasure(g, c.erased, c.syn); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathSyndromes draws the fixed seeded syndrome set the decode
// hot-path benchmarks and cmd/bench share (dephasing at p = 5%).
func hotPathSyndromes(b testing.TB, l *lattice.Lattice, g *lattice.Graph, count int, seed int64) [][]bool {
	b.Helper()
	rng := noise.NewRand(seed)
	ch, err := noise.NewDephasing(0.05)
	if err != nil {
		b.Fatal(err)
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
	return syndromes
}

// BenchmarkDecodeHotPath times the pooled DecodeInto path of every
// matching decoder at d ∈ {5,9,13} on fixed seeded syndromes, plain and
// with telemetry attached. ns/decode and allocs/decode are attached as
// metrics; cmd/bench writes the plain rows as its decoder_rows.
func BenchmarkDecodeHotPath(b *testing.B) {
	for _, d := range []int{5, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes := hotPathSyndromes(b, l, g, 64, int64(100+d))
		for _, dec := range []decodepool.IntoDecoder{greedy.New(), mwpm.New(), unionfind.New()} {
			b.Run(fmt.Sprintf("%s/d=%d/pooled", dec.Name(), d), func(b *testing.B) {
				s := decodepool.NewScratch()
				for _, syn := range syndromes { // warm the scratch and cache
					if _, err := dec.DecodeInto(g, syn, s); err != nil {
						b.Fatal(err)
					}
				}
				benchDecode(b, func(i int) error {
					_, err := dec.DecodeInto(g, syndromes[i%len(syndromes)], s)
					return err
				})
			})
			// Same pooled path with telemetry attached (default 1-in-16
			// latency sampling): the allocs/decode metric must stay 0 and
			// ns/decode within a few percent of plain pooled — the basis
			// of the ci.sh overhead guard.
			b.Run(fmt.Sprintf("%s/d=%d/pooled+obs", dec.Name(), d), func(b *testing.B) {
				s := decodepool.NewScratch()
				s.Instrument(obs.NewHistogram(), nil, 0)
				for _, syn := range syndromes { // warm the scratch and cache
					if _, err := dec.DecodeInto(g, syn, s); err != nil {
						b.Fatal(err)
					}
				}
				benchDecode(b, func(i int) error {
					_, err := dec.DecodeInto(g, syndromes[i%len(syndromes)], s)
					return err
				})
			})
		}
	}
}

// BenchmarkSFQMesh times the SFQ mesh at d ∈ {5,7,9,13} on fixed
// seeded syndromes: the struct-of-bools reference model
// (internal/sfq/oracle), the production kernel at one lane (sfq.Mesh
// through the pooled DecodeInto path), and the same kernel at full
// batch width. cycles/decode is attached as a metric — it must be
// identical across rows (the conformance suite enforces this; the
// benchmark makes it visible). The batch case reports per-decode
// metrics (one call advances Lanes() decodes). cmd/bench times the same
// three rows as its kernel_rows, the 1-lane and batch cells as ratios to
// the oracle timed alongside them.
func BenchmarkSFQMesh(b *testing.B) {
	for _, d := range []int{5, 7, 9, 13} {
		l := lattice.MustNew(d)
		g := l.MatchingGraph(lattice.ZErrors)
		syndromes := hotPathSyndromes(b, l, g, 64, int64(100+d))
		b.Run(fmt.Sprintf("d=%d/oracle", d), func(b *testing.B) {
			ref := oracle.New(g, sfq.Final)
			var q []int
			var cycles int64
			benchDecodeN(b, 1, func(i int) error {
				var st sfq.Stats
				var err error
				q, st, err = ref.Decode(syndromes[i%len(syndromes)], q[:0])
				cycles += int64(st.Cycles)
				return err
			})
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/decode")
		})
		b.Run(fmt.Sprintf("d=%d/1-lane", d), func(b *testing.B) {
			mesh := sfq.New(g, sfq.Final)
			s := decodepool.NewScratch()
			for _, syn := range syndromes { // warm the scratch
				if _, err := mesh.DecodeInto(g, syn, s); err != nil {
					b.Fatal(err)
				}
			}
			var cycles int64
			benchDecodeN(b, 1, func(i int) error {
				_, err := mesh.DecodeInto(g, syndromes[i%len(syndromes)], s)
				cycles += int64(mesh.Stats().Cycles)
				return err
			})
			b.ReportMetric(float64(cycles)/float64(b.N), "cycles/decode")
		})
		b.Run(fmt.Sprintf("d=%d/batch", d), func(b *testing.B) {
			batch := sfq.NewBatch(g, sfq.Final)
			s := decodepool.NewScratch()
			lanes := batch.Lanes()
			b.ReportMetric(float64(lanes), "lanes")
			// Rotating windows over the syndrome set so successive calls
			// decode fresh lane mixes.
			wins := make([][][]bool, len(syndromes))
			for i := range wins {
				win := make([][]bool, lanes)
				for j := range win {
					win[j] = syndromes[(i+j)%len(syndromes)]
				}
				wins[i] = win
			}
			for _, win := range wins { // warm the scratch
				if _, err := batch.DecodeBatchInto(g, win, s); err != nil {
					b.Fatal(err)
				}
			}
			var cycles int64
			benchDecodeN(b, lanes, func(i int) error {
				_, err := batch.DecodeBatchInto(g, wins[i%len(wins)], s)
				for j := 0; j < lanes; j++ {
					cycles += int64(batch.LaneStats(j).Cycles)
				}
				return err
			})
			b.ReportMetric(float64(cycles)/float64(b.N*lanes), "cycles/decode")
		})
	}
}

// benchDecode times one decode closure and reports ns/decode and
// allocs/decode (heap allocation count from runtime.MemStats).
func benchDecode(b *testing.B, decode func(i int) error) {
	benchDecodeN(b, 1, decode)
}

// benchDecodeN is benchDecode for closures that complete perCall
// decodes per invocation (the SWAR batch path): per-decode metrics are
// normalized by b.N·perCall.
func benchDecodeN(b *testing.B, perCall int, decode func(i int) error) {
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decode(i); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	n := float64(b.N) * float64(perCall)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/decode")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/decode")
}
