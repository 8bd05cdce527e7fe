// Package repro's benchmark harness regenerates every table and figure of
// "Byzantine Attacks Exploiting Penalties in Ethereum PoS" (DSN 2024).
//
// Each benchmark runs the code that produces one paper artifact and reports
// the reproduced headline quantity as a custom metric, so that
//
//	go test -bench=. -benchmem
//
// doubles as the reproduction record (see EXPERIMENTS.md for the
// paper-vs-measured index).
package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/gasperleak"
)

// newBenchClient builds a client over the built-in registry with the
// given sweep pool width (0 = all CPUs).
func newBenchClient(b *testing.B, workers int) *gasperleak.Client {
	b.Helper()
	c, err := gasperleak.NewClient(gasperleak.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable1Scenarios runs all five scenarios at paper scale
// (Table 1). Metric: the Scenario 5.1 conflicting-finalization epoch.
func BenchmarkTable1Scenarios(b *testing.B) {
	var epoch float64
	for i := 0; i < b.N; i++ {
		rows, err := gasperleak.Table1(1)
		if err != nil {
			b.Fatal(err)
		}
		epoch = float64(rows[0].SimEpoch)
	}
	b.ReportMetric(epoch, "conflict-epochs(5.1)")
}

// BenchmarkTable2Slashing regenerates Table 2 (paper row beta0=0.2: 3107).
func BenchmarkTable2Slashing(b *testing.B) {
	var epoch float64
	for i := 0; i < b.N; i++ {
		s, err := gasperleak.Scenario521(0.5, 0.2)
		if err != nil {
			b.Fatal(err)
		}
		epoch = float64(s.SimEpoch)
	}
	b.ReportMetric(epoch, "conflict-epochs(beta0=0.2)")
}

// BenchmarkTable3SemiActive regenerates Table 3 (paper row beta0=0.33: 556).
func BenchmarkTable3SemiActive(b *testing.B) {
	var epoch float64
	for i := 0; i < b.N; i++ {
		s, err := gasperleak.Scenario522(0.5, 0.33)
		if err != nil {
			b.Fatal(err)
		}
		epoch = float64(s.SimEpoch)
	}
	b.ReportMetric(epoch, "conflict-epochs(beta0=0.33)")
}

// BenchmarkFigure2StakeTrajectories regenerates Figure 2. Metric: the
// semi-active stake at epoch 4000 (ETH).
func BenchmarkFigure2StakeTrajectories(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f := gasperleak.Figure2()
		v = f.Series[1].Values[400]
	}
	b.ReportMetric(v, "semiactive-ETH(t=4000)")
}

// BenchmarkFigure3ActiveRatio regenerates Figure 3. Metric: the p0=0.5
// ratio at epoch 4000.
func BenchmarkFigure3ActiveRatio(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f := gasperleak.Figure3()
		v = f.Series[1].Values[400]
	}
	b.ReportMetric(v, "ratio(p0=0.5,t=4000)")
}

// BenchmarkFigure6ConflictCurves regenerates Figure 6 (100-point beta0
// sweep, numeric Equation 10 roots). Metric: semi-active epoch at
// beta0=0.33.
func BenchmarkFigure6ConflictCurves(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f, err := gasperleak.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		v = f.Series[1].Values[len(f.X)-1]
	}
	b.ReportMetric(v, "semiactive-epochs(beta0=0.33)")
}

// BenchmarkFigure7ThresholdRegion regenerates Figure 7. Metric: the
// symmetric-corner threshold (paper: 0.2421).
func BenchmarkFigure7ThresholdRegion(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f := gasperleak.Figure7()
		v = f.Series[2].Values[len(f.X)/2]
	}
	b.ReportMetric(v*1e4, "threshold-beta0-x1e4")
}

// BenchmarkFigure9Distribution regenerates Figure 9 at t=4024. Metric: the
// censored CDF at 26 ETH.
func BenchmarkFigure9Distribution(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f := gasperleak.Figure9(4024)
		v = f.Series[1].Values[260]
	}
	b.ReportMetric(v, "cdf(26ETH,t=4024)")
}

// BenchmarkFigure10BounceProbability regenerates Figure 10's Equation 24
// curves. Metric: the beta0=1/3 probability at epoch 4000 (paper: 0.5).
func BenchmarkFigure10BounceProbability(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f := gasperleak.Figure10()
		v = f.Series[0].Values[400]
	}
	b.ReportMetric(v, "P(beta>1/3)(t=4000)")
}

// BenchmarkFigure10MonteCarlo cross-checks Figure 10 with the exact integer
// Monte-Carlo at beta0=1/3. Metric: the Monte-Carlo probability at epoch
// 4000 (paper model: 0.5).
func BenchmarkFigure10MonteCarlo(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		f, err := newBenchClient(b, 0).Figure10MonteCarlo(context.Background(), 1.0/3.0, 300, 3, 5)
		if err != nil {
			b.Fatal(err)
		}
		v = f.Series[0].Values[3]
	}
	b.ReportMetric(v, "MC-P(beta>1/3)(t=4000)")
}

// BenchmarkScenarioAllHonestSim runs the FULL protocol simulator through
// Scenario 5.1 under a compressed spec (experiment X1). Metric: the epoch
// of the detected Safety violation.
func BenchmarkScenarioAllHonestSim(b *testing.B) {
	var violationEpoch float64
	for i := 0; i < b.N; i++ {
		s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
			Validators: 16,
			Spec:       gasperleak.CompressedSpec(1 << 16),
			GST:        1 << 30,
			Delay:      1,
			Seed:       3,
			PartitionOf: func(v gasperleak.ValidatorIndex) int {
				if v < 8 {
					return 0
				}
				return 1
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		violationEpoch = 0
		for epoch := 1; epoch <= 40 && violationEpoch == 0; epoch++ {
			if err := s.RunEpochs(1); err != nil {
				b.Fatal(err)
			}
			if v := s.CheckFinalitySafety(); v != nil {
				violationEpoch = float64(epoch)
			}
		}
	}
	b.ReportMetric(violationEpoch, "violation-epoch(compressed)")
}

// BenchmarkBounceContinuation evaluates the Section 5.3 continuation
// probability (experiment X2). Metric: -log10 of the paper's 1.01e-121.
func BenchmarkBounceContinuation(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		v = gasperleak.BounceContinuationProbability(1.0/3.0, 8, 7000)
	}
	var exp float64
	for v < 1 && exp < 400 {
		v *= 10
		exp++
	}
	b.ReportMetric(exp, "-log10(P-continue-7000)")
}

// BenchmarkBounceWindow evaluates the Equation 14 window over a beta0 sweep
// (experiment X3). Metric: the window width at beta0=1/3 (0.5).
func BenchmarkBounceWindow(b *testing.B) {
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		for _, beta0 := range []float64{0.05, 0.1, 0.2, 0.3, 1.0 / 3.0} {
			lo, hi = gasperleak.BounceWindow(beta0)
		}
	}
	b.ReportMetric(hi-lo, "window-width(beta0=1/3)")
}

// BenchmarkAblationUnboundedScores compares the paper's unbounded-score
// simplification with the real floored scores (DESIGN.md ablation).
// Metric: bounded-minus-unbounded probability at epoch 5000 (>= 0 means the
// paper's model is conservative, as it claims).
func BenchmarkAblationUnboundedScores(b *testing.B) {
	var diff float64
	for i := 0; i < b.N; i++ {
		epochs := []gasperleak.Epoch{5000}
		bounded := gasperleak.BounceMC{NHonest: 300, Beta0: 0.33, P0: 0.5, Seed: 7}
		unbounded := bounded
		unbounded.UnboundedScores = true
		pb, err := bounded.ExceedProbability(epochs, 2)
		if err != nil {
			b.Fatal(err)
		}
		pu, err := unbounded.ExceedProbability(epochs, 2)
		if err != nil {
			b.Fatal(err)
		}
		diff = pb[0] - pu[0]
	}
	b.ReportMetric(diff*1e4, "bounded-minus-unbounded-x1e4")
}

// BenchmarkAblationPaperVsContinuousAnchor quantifies the paper's
// 4685-vs-endogenous-4661 ejection anchoring gap (DESIGN.md ablation).
// Metric: the anchor gap in epochs.
func BenchmarkAblationPaperVsContinuousAnchor(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		gap = gasperleak.PaperParams().EjectionEpoch - gasperleak.ContinuousParams().EjectionEpoch
	}
	b.ReportMetric(gap, "anchor-gap-epochs")
}

// BenchmarkProtocolSimHealthyEpoch measures the cost of one healthy-network
// protocol epoch (16 validators), the substrate's unit of work.
func BenchmarkProtocolSimHealthyEpoch(b *testing.B) {
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators: 16,
		Spec:       gasperleak.DefaultSpec(),
		Delay:      1,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolSimPaperScaleEpoch measures one healthy-network
// protocol epoch at paper scale (10,000 validators) on the view-cohort
// kernel: the full protocol — block tree, LMD-GHOST, FFG, attestation
// pool, columnar registry — at 625x the validator count of the
// per-validator benchmark above, at comparable wall-clock.
func BenchmarkProtocolSimPaperScaleEpoch(b *testing.B) {
	s, err := gasperleak.NewSimulation(gasperleak.SimConfig{
		Validators: 10000,
		Spec:       gasperleak.DefaultSpec(),
		Delay:      1,
		Seed:       1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.RunEpochs(1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunEpochs(1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLeakSimFullScale measures one full-scale (9000-epoch, 10k
// validators) aggregate leak simulation — the engine behind Tables 2-3.
func BenchmarkLeakSimFullScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim := gasperleak.LeakSim{N: 10000, P0: 0.5, Beta0: 0.2, Mode: gasperleak.ByzDoubleVote}
		if _, err := sim.Run(9000, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkSweepTable1 runs the Table 1 scenario sweep through the engine
// with the given worker count and reports the 5.1 conflict epoch.
func benchmarkSweepTable1(b *testing.B, workers int) {
	var epoch float64
	for i := 0; i < b.N; i++ {
		results := newBenchClient(b, workers).Sweep(context.Background(), gasperleak.Table1Cells(1))
		if err := gasperleak.SweepFirstError(results); err != nil {
			b.Fatal(err)
		}
		epoch, _ = results[0].Metric("sim_epoch")
	}
	b.ReportMetric(epoch, "conflict-epochs(5.1)")
}

// BenchmarkSweepTable1Workers1 is the sequential baseline of the Table 1
// sweep; compare with BenchmarkSweepTable1WorkersMax for the worker-pool
// speedup (see EXPERIMENTS.md).
func BenchmarkSweepTable1Workers1(b *testing.B) { benchmarkSweepTable1(b, 1) }

// BenchmarkSweepTable1WorkersMax runs the same sweep on all CPUs. Results
// are bit-identical to the sequential run; only the wall time changes.
func BenchmarkSweepTable1WorkersMax(b *testing.B) { benchmarkSweepTable1(b, runtime.NumCPU()) }

// benchmarkSweepLeakGrid sweeps a 20-cell uniform leaksim grid (p0 x
// beta0 x mode at full paper scale) with the given worker count — the
// scaling probe for the worker pool, since every cell costs about the
// same.
func benchmarkSweepLeakGrid(b *testing.B, workers int) {
	grid := gasperleak.SweepGrid{
		Scenario: "leaksim",
		P0:       []float64{0.3, 0.4, 0.5, 0.6, 0.7},
		Beta0:    []float64{0.1, 0.2},
		Modes:    []string{"double", "semi"},
	}
	cells := grid.Cells()
	c := newBenchClient(b, workers)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := c.Sweep(context.Background(), cells)
		if err := gasperleak.SweepFirstError(results); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepLeakGridWorkers1 is the sequential baseline of the
// 20-cell leaksim grid.
func BenchmarkSweepLeakGridWorkers1(b *testing.B) { benchmarkSweepLeakGrid(b, 1) }

// BenchmarkSweepLeakGridWorkersMax runs the same grid on all CPUs.
func BenchmarkSweepLeakGridWorkersMax(b *testing.B) { benchmarkSweepLeakGrid(b, runtime.NumCPU()) }

// TestBenchHarnessSmoke keeps the bench file honest under plain `go test`:
// the harness's metrics match the paper's headline values.
func TestBenchHarnessSmoke(t *testing.T) {
	rows, err := gasperleak.Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range rows {
		ids = append(ids, r.ID)
	}
	if got := strings.Join(ids, ","); got != "5.1,5.2.1,5.2.2,5.2.3,5.3" {
		t.Errorf("Table 1 scenario ids = %s", got)
	}
}
