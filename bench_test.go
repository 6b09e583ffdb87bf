package convoy_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each benchmark regenerates its experiment at Tiny scale — the
// experiment functions are the same ones `cmd/experiments` runs at larger
// scales, and `experiments -list` prints their index. The Benchmark*Algo
// benches at the bottom measure the individual miners head-to-head on one
// dataset, which is the quickest way to see the k/2-hop gain without
// running a whole figure.

import (
	"fmt"
	"testing"

	convoy "repro"
	"repro/internal/experiments"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	// Warm the dataset cache so generation cost is not measured.
	for _, spec := range experiments.Datasets() {
		spec.Build(experiments.Tiny)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(id, experiments.Tiny); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// --- Figure 7 -------------------------------------------------------------

func BenchmarkFig7a_GainOverVCoDAStar_Trucks(b *testing.B) { benchExperiment(b, "fig7a") }
func BenchmarkFig7b_GainOverVCoDAStar_TDrive(b *testing.B) { benchExperiment(b, "fig7b") }
func BenchmarkFig7c_RDBMSvsLSMT_Brinkhoff(b *testing.B)    { benchExperiment(b, "fig7c") }
func BenchmarkFig7d_GainOverSPARE_Single(b *testing.B)     { benchExperiment(b, "fig7d") }
func BenchmarkFig7e_GainOverSPARE_Yarn(b *testing.B)       { benchExperiment(b, "fig7e") }
func BenchmarkFig7f_GainOverSPARE_Numa(b *testing.B)       { benchExperiment(b, "fig7f") }
func BenchmarkFig7g_GainOverDCM_Yarn(b *testing.B)         { benchExperiment(b, "fig7g") }
func BenchmarkFig7h_EffectOfK_Trucks(b *testing.B)         { benchExperiment(b, "fig7h") }

// --- Figure 8 -------------------------------------------------------------

func BenchmarkFig8a_EffectOfK_TDrive(b *testing.B)      { benchExperiment(b, "fig8a") }
func BenchmarkFig8b_EffectOfK_Brinkhoff(b *testing.B)   { benchExperiment(b, "fig8b") }
func BenchmarkFig8c_EffectOfM_Trucks(b *testing.B)      { benchExperiment(b, "fig8c") }
func BenchmarkFig8d_EffectOfM_TDrive(b *testing.B)      { benchExperiment(b, "fig8d") }
func BenchmarkFig8e_EffectOfM_Brinkhoff(b *testing.B)   { benchExperiment(b, "fig8e") }
func BenchmarkFig8f_EffectOfEps_Trucks(b *testing.B)    { benchExperiment(b, "fig8f") }
func BenchmarkFig8g_EffectOfEps_TDrive(b *testing.B)    { benchExperiment(b, "fig8g") }
func BenchmarkFig8h_EffectOfEps_Brinkhoff(b *testing.B) { benchExperiment(b, "fig8h") }
func BenchmarkFig8i_PhaseBreakdown_LSMT(b *testing.B)   { benchExperiment(b, "fig8i") }
func BenchmarkFig8j_PreValidationConvoys(b *testing.B)  { benchExperiment(b, "fig8j") }
func BenchmarkFig8k_EffectOfConvoyCount(b *testing.B)   { benchExperiment(b, "fig8k") }
func BenchmarkFig8l_DataSizeScalability(b *testing.B)   { benchExperiment(b, "fig8l") }

// --- Tables ---------------------------------------------------------------

func BenchmarkTable4_BrinkhoffProperties(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5_PruningPerformance(b *testing.B)  { benchExperiment(b, "table5") }

// --- Head-to-head algorithm benches on the T-Drive dataset ----------------

func benchAlgo(b *testing.B, algo convoy.Algorithm, workers int) {
	b.Helper()
	spec := experiments.TDriveSpec()
	ds := spec.Build(experiments.Tiny)
	p := convoy.Params{M: spec.M, K: spec.KMid(ds), Eps: spec.Eps}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := convoy.MineDataset(ds, p, &convoy.Options{Algorithm: algo, Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkK2HopParallel sweeps the worker-pool size over the k/2-hop
// pipeline on the T-Drive dataset: workers=1 is the sequential baseline
// the parallel runs must beat (and whose output they must reproduce
// byte-identically — see TestMineParallelDeterminism).
func BenchmarkK2HopParallel(b *testing.B) {
	spec := experiments.TDriveSpec()
	ds := spec.Build(experiments.Tiny)
	p := convoy.Params{M: spec.M, K: spec.KMid(ds), Eps: spec.Eps}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := convoy.MineDataset(ds, p, &convoy.Options{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAlgoK2Hop(b *testing.B)     { benchAlgo(b, convoy.K2Hop, 1) }
func BenchmarkAlgoVCoDA(b *testing.B)     { benchAlgo(b, convoy.VCoDA, 1) }
func BenchmarkAlgoVCoDAStar(b *testing.B) { benchAlgo(b, convoy.VCoDAStar, 1) }
func BenchmarkAlgoPCCD(b *testing.B)      { benchAlgo(b, convoy.PCCD, 1) }
func BenchmarkAlgoCuTS(b *testing.B)      { benchAlgo(b, convoy.CuTS, 1) }
func BenchmarkAlgoDCM4(b *testing.B)      { benchAlgo(b, convoy.DCM, 4) }
func BenchmarkAlgoSPARE4(b *testing.B)    { benchAlgo(b, convoy.SPARE, 4) }
