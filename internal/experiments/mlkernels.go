package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"aidb/internal/ml"
)

func init() {
	register("E28", runE28BatchedKernels)
}

// e28Net builds a deterministic MLP and a regression dataset (y depends
// nonlinearly on x) sized like the learned components' workloads.
func e28Net(seed uint64, inputs, hidden, rows int) (*ml.MLP, *ml.Matrix, []float64) {
	net := ml.NewMLP(ml.NewRNG(seed), ml.ReLU, inputs, hidden, hidden, 1)
	dataRng := ml.NewRNG(seed + 1)
	x := ml.NewMatrix(rows, inputs)
	y := make([]float64, rows)
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := 0; j < inputs; j++ {
			v := dataRng.NormFloat64()
			x.Set(i, j, v)
			if j%2 == 0 {
				s += v
			} else {
				s -= 0.5 * v * v
			}
		}
		y[i] = s
	}
	return net, x, y
}

func bitwiseEqualMatrices(a, b *ml.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// runE28BatchedKernels validates the §2.2 data-batching claim for the ML
// substrate: batched, cache-blocked, worker-parallel kernels return
// bitwise-identical results to the per-row/per-example paths — at every
// parallelism — while doing the same arithmetic with far less memory
// traffic. Wall-clock comparison is deliberately excluded from Holds
// (runners must be deterministic for a fixed seed): the BenchmarkML*
// suite in bench_test.go times each kernel against its baseline.
func runE28BatchedKernels(seed uint64) *Table {
	t := &Table{
		ID:     "E28",
		Title:  "Batched & parallel ML kernels: bitwise-identical to per-row at every parallelism",
		Claim:  "Blocked/parallel GEMM, whole-minibatch MLP inference, and chunk-parallel minibatch training reproduce the per-row/per-example results exactly, and minibatch training reaches per-example SGD's loss with a fraction of the weight updates (§2.2 data batching & parallelism for in-DB ML)",
		Header: []string{"kernel", "shape", "workers", "check", "result"},
	}
	t.Holds = true
	fail := func(row []string) {
		t.Holds = false
		t.Rows = append(t.Rows, row)
	}

	// 1. GEMM: blocked serial and row-parallel vs the naive oracle.
	gemmRng := ml.NewRNG(seed)
	for _, sh := range [][3]int{{64, 96, 32}, {256, 256, 256}, {300, 128, 190}} {
		a := ml.NewMatrix(sh[0], sh[1])
		b := ml.NewMatrix(sh[1], sh[2])
		for i := range a.Data {
			a.Data[i] = gemmRng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = gemmRng.NormFloat64()
		}
		want := ml.MatMulNaive(a, b)
		shape := fmt.Sprintf("%dx%dx%d", sh[0], sh[1], sh[2])
		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			if bitwiseEqualMatrices(ml.MatMulWorkers(a, b, workers), want) {
				t.Rows = append(t.Rows, []string{"gemm-blocked", shape, itoa(workers), "== naive (bitwise)", "yes"})
			} else {
				fail([]string{"gemm-blocked", shape, itoa(workers), "== naive (bitwise)", "NO"})
			}
		}
	}

	// 2. Whole-minibatch inference vs per-row Predict.
	net, x, _ := e28Net(seed+10, 12, 32, 512)
	for _, batch := range []int{1, 64, 256, 512} {
		xb := x.RowSlice(0, batch)
		want := ml.NewMatrix(batch, 1)
		for i := 0; i < batch; i++ {
			copy(want.Row(i), net.Predict(xb.Row(i)))
		}
		if bitwiseEqualMatrices(net.PredictBatch(xb), want) {
			t.Rows = append(t.Rows, []string{"mlp-forward", fmt.Sprintf("batch=%d", batch), "auto", "== per-row (bitwise)", "yes"})
		} else {
			fail([]string{"mlp-forward", fmt.Sprintf("batch=%d", batch), "auto", "== per-row (bitwise)", "NO"})
		}
	}

	// 3. Minibatch training: weights bitwise-identical at any worker
	// count after multiple steps.
	trainNet, tx, tyv := e28Net(seed+20, 12, 32, 512)
	ty := ml.NewMatrix(len(tyv), 1)
	for i, v := range tyv {
		ty.Set(i, 0, v)
	}
	var ref *ml.MLP
	for _, workers := range []int{1, 2, runtime.NumCPU()} {
		c := trainNet.Clone()
		var s ml.MLPScratch
		for step := 0; step < 5; step++ {
			c.TrainMinibatch(&s, tx, ty, 0.01, workers)
		}
		if ref == nil {
			ref = c
			t.Rows = append(t.Rows, []string{"minibatch-train", "512x12", itoa(workers), "reference weights", "baseline"})
			continue
		}
		// Identical weights give identical predictions on the training
		// inputs; comparing outputs checks every parameter at once.
		if bitwiseEqualMatrices(c.PredictBatch(tx), ref.PredictBatch(tx)) {
			t.Rows = append(t.Rows, []string{"minibatch-train", "512x12", itoa(workers), "weights == workers=1 (bitwise)", "yes"})
		} else {
			fail([]string{"minibatch-train", "512x12", itoa(workers), "weights == workers=1 (bitwise)", "NO"})
		}
	}

	// 4. Equal-loss protocol: per-example SGD sets a target loss; each
	// minibatch size trains epoch-by-epoch until it reaches the target.
	// Epoch counts are deterministic for the fixed seed; only the
	// wall-clock comparison (in the Note) varies by host.
	parity := e28LossParity(seed + 30)
	for _, p := range parity.batches {
		res := "yes"
		if !p.reached {
			res = "NO"
			t.Holds = false
		}
		t.Rows = append(t.Rows, []string{
			"train-to-loss", fmt.Sprintf("batch=%d", p.batch), "auto",
			fmt.Sprintf("reaches sgd loss %.4f within %d epochs (used %d, loss %.4f)", parity.target, e28EpochCap, p.epochs, p.loss),
			res,
		})
	}

	t.Note = fmt.Sprintf(
		"Holds covers only deterministic equality and epochs-to-loss checks; wall-clock speedups (batched inference vs per-row, minibatch vs per-example SGD, parallel vs serial GEMM) are timed by the BenchmarkML* suite (`make bench-smoke`) — this host has %d CPU(s), and with one CPU the parallel paths degenerate to the blocked serial kernel by design; smallest batch size whose equal-loss training wall-clock beat per-example SGD in this run: %s",
		runtime.NumCPU(), parity.crossover)
	return t
}

// e28EpochCap bounds the equal-loss search; a minibatch run that cannot
// reach the SGD target inside the cap fails the shape.
const e28EpochCap = 600

type e28BatchResult struct {
	batch   int
	epochs  int
	loss    float64
	reached bool
}

type e28Parity struct {
	target    float64
	batches   []e28BatchResult
	crossover string
}

// e28LossParity implements the equal-loss protocol: per-example SGD for
// 40 epochs fixes the target loss, then each minibatch size trains one
// epoch at a time until its epoch loss reaches the target (allowing
// 10% slack). Epoch counts depend only on the seed; the wall-clock
// crossover is reported for the Note but never affects Holds.
func e28LossParity(seed uint64) e28Parity {
	build := func() (*ml.MLP, *ml.Matrix, []float64) {
		net, x, y := e28Net(seed, 8, 24, 256)
		net.LearningRate = 0.01
		return net, x, y
	}
	sgdNet, x, y := build()
	sgdNet.Epochs = 40
	sgdStart := time.Now()
	sgdLoss, _ := sgdNet.TrainScalar(ml.NewRNG(seed+5), x, y)
	sgdNs := time.Since(sgdStart)

	p := e28Parity{target: sgdLoss * 1.1, crossover: "none"}
	for _, batch := range []int{16, 64, 128} {
		bNet, bx, by := build()
		bNet.BatchSize = batch
		bNet.Epochs = 1 // advance one epoch per TrainBatchedScalar call
		// Square-root learning-rate scaling: larger batches average away
		// gradient noise, supporting proportionally larger steps.
		bNet.LearningRate = 0.01 * math.Sqrt(float64(batch))
		rng := ml.NewRNG(seed + 5)
		res := e28BatchResult{batch: batch}
		start := time.Now()
		for res.epochs < e28EpochCap {
			loss, err := bNet.TrainBatchedScalar(rng, bx, by, 0)
			if err != nil {
				break
			}
			res.epochs++
			res.loss = loss
			if loss <= p.target {
				res.reached = true
				break
			}
		}
		elapsed := time.Since(start)
		if p.crossover == "none" && res.reached && elapsed < sgdNs {
			p.crossover = itoa(batch)
		}
		p.batches = append(p.batches, res)
	}
	return p
}
