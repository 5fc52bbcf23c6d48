package aidb_test

// One benchmark per experiment in DESIGN.md's matrix. Each iteration
// regenerates the experiment's full table (workload generation, learned
// method, baseline, comparison), so the reported time is the cost of the
// whole reproduction. Per-operation micro-benchmarks (B+tree vs RMI
// lookups, UDF vs vectorized scoring, LSM ops, executor throughput) live
// next to their packages; run everything with:
//
//	go test -bench=. -benchmem ./...

import (
	"fmt"
	"testing"

	"aidb/internal/experiments"
	"aidb/internal/ml"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Run(id, 20260705)
		if err != nil {
			b.Fatal(err)
		}
		if !tab.Holds {
			b.Fatalf("%s: claimed shape does not hold:\n%s", id, tab.String())
		}
	}
}

func BenchmarkE1KnobTuning(b *testing.B)            { benchExperiment(b, "E1") }
func BenchmarkE2IndexAdvisor(b *testing.B)          { benchExperiment(b, "E2") }
func BenchmarkE3ViewAdvisor(b *testing.B)           { benchExperiment(b, "E3") }
func BenchmarkE4SQLRewriter(b *testing.B)           { benchExperiment(b, "E4") }
func BenchmarkE5Partitioning(b *testing.B)          { benchExperiment(b, "E5") }
func BenchmarkE6Cardinality(b *testing.B)           { benchExperiment(b, "E6") }
func BenchmarkE7JoinOrder(b *testing.B)             { benchExperiment(b, "E7") }
func BenchmarkE8EndToEndOptimizer(b *testing.B)     { benchExperiment(b, "E8") }
func BenchmarkE9LearnedIndex(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10DataStructureDesign(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkE11LearnedTransactions(b *testing.B)  { benchExperiment(b, "E11") }
func BenchmarkE12Monitoring(b *testing.B)           { benchExperiment(b, "E12") }
func BenchmarkE13Security(b *testing.B)             { benchExperiment(b, "E13") }
func BenchmarkE14DeclarativeML(b *testing.B)        { benchExperiment(b, "E14") }
func BenchmarkE15DataDiscovery(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16DataCleaning(b *testing.B)         { benchExperiment(b, "E16") }
func BenchmarkE17DataLabeling(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkE18FeatureSelection(b *testing.B)     { benchExperiment(b, "E18") }
func BenchmarkE19ModelSelection(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20HardwareAcceleration(b *testing.B) { benchExperiment(b, "E20") }
func BenchmarkE21InferenceOperators(b *testing.B)   { benchExperiment(b, "E21") }
func BenchmarkE22HybridInference(b *testing.B)      { benchExperiment(b, "E22") }
func BenchmarkE23FaultTolerance(b *testing.B)       { benchExperiment(b, "E23") }
func BenchmarkE24GuardedDegradation(b *testing.B)   { benchExperiment(b, "E24") }
func BenchmarkE25LiveRootCause(b *testing.B)        { benchExperiment(b, "E25") }
func BenchmarkE26MorselParallelism(b *testing.B)    { benchExperiment(b, "E26") }
func BenchmarkE27CardinalityFeedback(b *testing.B)  { benchExperiment(b, "E27") }
func BenchmarkE28BatchedKernels(b *testing.B)       { benchExperiment(b, "E28") }
func BenchmarkE29OverloadGovernance(b *testing.B)   { benchExperiment(b, "E29") }
func BenchmarkE30AnomalyAlerts(b *testing.B)        { benchExperiment(b, "E30") }
func BenchmarkE32SystemCatalog(b *testing.B)        { benchExperiment(b, "E32") }
func BenchmarkE33PlanCache(b *testing.B)            { benchExperiment(b, "E33") }

// --- ML kernel micro-benchmarks ---
//
// The BenchmarkML* suite pits each batched/parallel kernel against its
// per-row or naive baseline: GEMM (naive ijk vs cache-blocked vs
// row-parallel), MLP inference (Predict1 per row vs one batched forward
// pass), and training (per-example SGD vs chunk-parallel minibatch).
// `make bench-smoke` runs it once per kernel; read a speedup as the
// ratio of two sub-benchmarks' ns/op.

func benchRandMatrix(rng *ml.RNG, rows, cols int) *ml.Matrix {
	m := ml.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkMLGEMM(b *testing.B) {
	for _, n := range []int{128, 256} {
		rng := ml.NewRNG(20260705)
		x := benchRandMatrix(rng, n, n)
		y := benchRandMatrix(rng, n, n)
		out := ml.NewMatrix(n, n)
		b.Run(fmt.Sprintf("naive-%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ml.MatMulNaive(x, y)
			}
		})
		b.Run(fmt.Sprintf("blocked-%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ml.MatMulInto(out, x, y, 1)
			}
		})
		b.Run(fmt.Sprintf("parallel-%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ml.MatMulInto(out, x, y, 0)
			}
		})
	}
}

func BenchmarkMLMLPInfer(b *testing.B) {
	rng := ml.NewRNG(20260705)
	net := ml.NewMLP(rng, ml.ReLU, 24, 128, 128, 1)
	for _, batch := range []int{64, 256} {
		x := benchRandMatrix(rng, batch, 24)
		b.Run(fmt.Sprintf("per-row-%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			out := make([]float64, batch)
			for i := 0; i < b.N; i++ {
				for r := 0; r < batch; r++ {
					out[r] = net.Predict1(x.Row(r))
				}
			}
		})
		b.Run(fmt.Sprintf("batched-%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			var s ml.MLPScratch
			var out []float64
			for i := 0; i < b.N; i++ {
				out = net.Predict1Batch(&s, x, out)
			}
		})
	}
}

func BenchmarkMLTrain(b *testing.B) {
	const rows = 256
	rng := ml.NewRNG(20260705)
	x := benchRandMatrix(rng, rows, 24)
	y := benchRandMatrix(rng, rows, 1)
	b.Run("sgd-epoch-256", func(b *testing.B) {
		b.ReportAllocs()
		net := ml.NewMLP(ml.NewRNG(1), ml.ReLU, 24, 48, 48, 1)
		for i := 0; i < b.N; i++ {
			for r := 0; r < rows; r++ {
				net.TrainStep(x.Row(r), y.Row(r), 0.01)
			}
		}
	})
	b.Run("minibatch-epoch-256", func(b *testing.B) {
		b.ReportAllocs()
		net := ml.NewMLP(ml.NewRNG(1), ml.ReLU, 24, 48, 48, 1)
		var s ml.MLPScratch
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < rows; lo += 64 {
				net.TrainMinibatch(&s, x.RowSlice(lo, lo+64), y.RowSlice(lo, lo+64), 0.01, 0)
			}
		}
	})
}
