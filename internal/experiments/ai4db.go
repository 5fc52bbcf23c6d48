package experiments

import (
	"fmt"
	"sort"

	"aidb/internal/cardest"
	"aidb/internal/dstruct"
	"aidb/internal/idxadvisor"
	"aidb/internal/index"
	"aidb/internal/joinorder"
	"aidb/internal/knob"
	"aidb/internal/kv"
	"aidb/internal/learnedidx"
	"aidb/internal/ml"
	"aidb/internal/monitor"
	"aidb/internal/optimizer"
	"aidb/internal/partition"
	"aidb/internal/rewrite"
	"aidb/internal/rl"
	"aidb/internal/security"
	"aidb/internal/sql"
	"aidb/internal/txn"
	"aidb/internal/txnsched"
	"aidb/internal/viewadvisor"
	"aidb/internal/workload"
)

func init() {
	register("E1", runE1KnobTuning)
	register("E2", runE2IndexAdvisor)
	register("E3", runE3ViewAdvisor)
	register("E4", runE4SQLRewriter)
	register("E5", runE5Partition)
	register("E6", runE6Cardinality)
	register("E7", runE7JoinOrder)
	register("E8", runE8EndToEndOptimizer)
	register("E9", runE9LearnedIndex)
	register("E10", runE10DataStructureDesign)
	register("E11", runE11LearnedTransactions)
	register("E12", runE12Monitoring)
	register("E13", runE13Security)
}

func runE1KnobTuning(seed uint64) *Table {
	t := &Table{
		ID:     "E1",
		Title:  "Knob tuning: RL vs heuristic search",
		Claim:  "learned tuners reach near-optimal throughput in fewer trials than manual/heuristic methods (§2.1 knob tuning)",
		Header: []string{"tuner", "budget", "regret", "evaluations"},
	}
	mix := knob.WorkloadMix{Write: 0.6, Scan: 0.2, Read: 0.2}
	const budget = 150
	type entry struct {
		name   string
		regret float64
		evals  int
	}
	var entries []entry
	tuners := []knob.Tuner{
		knob.RandomSearch{Rng: ml.NewRNG(seed + 1)},
		knob.GridSearch{Levels: 3},
		knob.CoordinateDescent{},
		&knob.CDBTune{Rng: ml.NewRNG(seed + 2)},
		&knob.QTune{Rng: ml.NewRNG(seed + 3)},
	}
	for _, tn := range tuners {
		s := knob.NewSurface(ml.NewRNG(seed), 0.01)
		cfg := tn.Tune(s, mix, budget)
		entries = append(entries, entry{tn.Name(), s.Regret(cfg, mix), s.Evaluations})
	}
	var gridRegret, rlRegret float64
	for _, e := range entries {
		t.Rows = append(t.Rows, []string{e.name, itoa(budget), f3(e.regret), itoa(e.evals)})
		if e.name == "grid-search" {
			gridRegret = e.regret
		}
		if e.name == "cdbtune-rl" {
			rlRegret = e.regret
		}
	}
	t.Holds = rlRegret < gridRegret
	t.Note = fmt.Sprintf("RL regret %.3f vs grid %.3f at equal budget", rlRegret, gridRegret)
	return t
}

func runE2IndexAdvisor(seed uint64) *Table {
	t := &Table{
		ID:     "E2",
		Title:  "Index advisor: learned selection vs greedy what-if",
		Claim:  "learned advisors match greedy benefit at equal budget with fewer what-if calls (§2.1 index advisor)",
		Header: []string{"advisor", "workload cost", "what-if calls"},
	}
	rng := ml.NewRNG(seed)
	cols := make([]workload.Column, 12)
	for i := range cols {
		cols[i] = workload.Column{Name: fmt.Sprintf("c%d", i), NDV: 1000, CorrelatedWith: -1}
	}
	spec := workload.TableSpec{Name: "wide", Rows: 5000, Columns: cols}
	tab := workload.Generate(rng, spec)
	var qs []workload.Query
	for i := 0; i < 200; i++ {
		var q workload.Query
		if rng.Float64() < 0.8 {
			col := rng.Intn(3)
			lo := int64(rng.Intn(990))
			q.Preds = append(q.Preds, workload.Predicate{Column: col, Lo: lo, Hi: lo + 9})
		} else {
			col := 3 + rng.Intn(9)
			lo := int64(rng.Intn(500))
			q.Preds = append(q.Preds, workload.Predicate{Column: col, Lo: lo, Hi: lo + 499})
		}
		qs = append(qs, q)
	}
	eval := &idxadvisor.CostModel{Table: tab}
	var gCost, mCost float64
	var gCalls, mCalls int
	for _, adv := range []idxadvisor.Advisor{
		idxadvisor.Greedy{},
		&idxadvisor.Classifier{Rng: ml.NewRNG(seed + 1)},
		&idxadvisor.MDP{Rng: ml.NewRNG(seed + 2)},
	} {
		cm := &idxadvisor.CostModel{Table: tab}
		set := adv.Recommend(cm, qs, 3)
		cost := eval.WorkloadCost(qs, set)
		t.Rows = append(t.Rows, []string{adv.Name(), f0(cost), itoa(cm.WhatIfCalls)})
		switch adv.Name() {
		case "greedy-whatif":
			gCost, gCalls = cost, cm.WhatIfCalls
		case "mdp-qlearning":
			mCost, mCalls = cost, cm.WhatIfCalls
		}
	}
	t.Holds = mCost <= gCost*1.15 && mCalls < gCalls
	t.Note = fmt.Sprintf("MDP within %.1f%% of greedy cost using %d/%d what-ifs", 100*(mCost/gCost-1), mCalls, gCalls)
	return t
}

func runE3ViewAdvisor(seed uint64) *Table {
	t := &Table{
		ID:     "E3",
		Title:  "View advisor: adaptive RL vs static greedy under drift",
		Claim:  "RL-based MV selection adapts to dynamic workloads; a one-shot greedy choice goes stale (§2.1 view advisor)",
		Header: []string{"advisor", "total cost", "vs oracle"},
	}
	env := viewadvisor.Env{NumTemplates: 10, ScanCost: 100, ViewCost: 5, MaintCost: 300}
	hotA := make([]float64, 10)
	hotB := make([]float64, 10)
	for i := range hotA {
		hotA[i], hotB[i] = 1, 1
	}
	hotA[0], hotA[1] = 50, 40
	hotB[7], hotB[8] = 50, 40
	phases := []viewadvisor.Phase{{Rates: hotA, Epochs: 10}, {Rates: hotB, Epochs: 10}}
	static := viewadvisor.Simulate(ml.NewRNG(seed), env, phases, viewadvisor.NewStaticGreedy(env), 2)
	rlRes := viewadvisor.Simulate(ml.NewRNG(seed), env, phases, viewadvisor.NewRL(ml.NewRNG(seed+1), env), 2)
	t.Rows = append(t.Rows,
		[]string{"static-greedy", f0(static.TotalCost), f2(static.TotalCost / static.OracleCost)},
		[]string{"rl-adaptive", f0(rlRes.TotalCost), f2(rlRes.TotalCost / rlRes.OracleCost)},
		[]string{"(no views)", f0(static.NoViewCost), f2(static.NoViewCost / static.OracleCost)},
		[]string{"(oracle)", f0(static.OracleCost), "1.00"},
	)
	t.Holds = rlRes.TotalCost < static.TotalCost
	t.Note = fmt.Sprintf("RL %.0f vs static %.0f under drift", rlRes.TotalCost, static.TotalCost)
	return t
}

func runE4SQLRewriter(seed uint64) *Table {
	t := &Table{
		ID:     "E4",
		Title:  "SQL rewriter: MCTS rule ordering vs fixed top-down",
		Claim:  "learned rule ordering finds rewrites a fixed order misses, and is never worse (§2.1 SQL rewriter)",
		Header: []string{"query", "original cost", "fixed order", "mcts order"},
	}
	queries := []string{
		"NOT NOT a = 1",
		"NOT (a < 5 AND b < 3)",
		"a BETWEEN 1 AND 10 AND a >= 5 AND a <= 8",
		"a > 1 + 2 AND a > 10 AND b = 2 AND b = 2",
		"a BETWEEN 2 AND 20 AND a >= 15",
	}
	rules := rewrite.Rules()
	rng := ml.NewRNG(seed)
	wins, worse := 0, 0
	for _, q := range queries {
		stmt, err := sql.Parse("SELECT * FROM t WHERE " + q)
		if err != nil {
			continue
		}
		e := stmt.(*sql.SelectStmt).Where
		fixed, _ := rewrite.FixedOrder(e, rules, 50)
		learned, _ := rewrite.MCTSRewrite(rng, e, rules, 10, 300)
		fc, lc := rewrite.Cost(fixed), rewrite.Cost(learned)
		t.Rows = append(t.Rows, []string{q, f2(rewrite.Cost(e)), f2(fc), f2(lc)})
		if lc < fc {
			wins++
		}
		if lc > fc {
			worse++
		}
	}
	t.Holds = wins > 0 && worse == 0
	t.Note = fmt.Sprintf("MCTS strictly better on %d/%d queries, worse on %d", wins, len(queries), worse)
	return t
}

func runE5Partition(seed uint64) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "Partitioning: RL key choice vs frequency heuristic",
		Claim:  "RL balances routing work against shard skew; the most-frequent-column heuristic ignores skew (§2.1 database partition)",
		Header: []string{"advisor", "key", "combined cost"},
	}
	rng := ml.NewRNG(seed)
	spec := workload.TableSpec{
		Name: "orders",
		Rows: 1000,
		Columns: []workload.Column{
			{Name: "tenant", NDV: 50, Skew: 2.0, CorrelatedWith: -1},
			{Name: "region", NDV: 64, CorrelatedWith: -1},
			{Name: "status", NDV: 4, CorrelatedWith: -1},
		},
	}
	tab := workload.Generate(rng, spec)
	env := &partition.Env{Table: tab, Shards: 8, ImbalanceWeight: 2}
	tenantZipf := ml.NewZipf(rng, 50, 2.0)
	var qs []partition.Query
	for i := 0; i < 1000; i++ {
		q := partition.Query{Eq: map[int]int64{}}
		if rng.Float64() < 0.95 {
			q.Eq[0] = int64(tenantZipf.Next())
		}
		if rng.Float64() < 0.90 {
			q.Eq[1] = int64(rng.Intn(64))
		}
		qs = append(qs, q)
	}
	eval := &partition.Env{Table: tab, Shards: 8, ImbalanceWeight: 2}
	var fhCost, rlCost float64
	for _, adv := range []partition.Advisor{
		partition.FrequencyHeuristic{},
		&partition.RL{Rng: ml.NewRNG(seed + 1)},
		partition.Exhaustive{},
	} {
		key := adv.Recommend(env, qs, 2)
		cost := eval.Cost(key, qs)
		t.Rows = append(t.Rows, []string{adv.Name(), fmt.Sprint(key), f3(cost)})
		switch adv.Name() {
		case "frequency-heuristic":
			fhCost = cost
		case "rl-qlearning":
			rlCost = cost
		}
	}
	t.Holds = rlCost < fhCost
	t.Note = fmt.Sprintf("RL %.3f vs heuristic %.3f", rlCost, fhCost)
	return t
}

func runE6Cardinality(seed uint64) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Cardinality estimation on correlated data",
		Claim:  "learned estimators capture cross-column correlation that independence-assumption histograms cannot (§2.1 cost estimation)",
		Header: []string{"estimator", "median q-error", "p95 q-error", "max q-error"},
	}
	rng := ml.NewRNG(seed)
	spec := workload.TableSpec{
		Name: "corr",
		Rows: 10000,
		Columns: []workload.Column{
			{Name: "a", NDV: 100, CorrelatedWith: -1},
			{Name: "b", NDV: 100, CorrelatedWith: 0, CorrNoise: 3},
		},
	}
	tab := workload.Generate(rng, spec)
	gen := workload.NewQueryGen(rng, spec)
	gen.MinPreds, gen.MaxPreds = 2, 2
	train := make([]workload.Query, 400)
	truths := make([]int, 400)
	for i := range train {
		train[i] = gen.Next()
		truths[i] = workload.TrueCardinality(tab, train[i])
	}
	test := make([]workload.Query, 100)
	for i := range test {
		test[i] = gen.Next()
	}
	mlp := cardest.NewMLPEstimator(ml.NewRNG(seed+1), spec, 32)
	_ = mlp.Train(ml.NewRNG(seed+2), train, truths, 60)
	mix, err := cardest.NewMixtureEstimator(spec, train[:150], truths[:150])
	hist := cardest.NewHistogramEstimator(tab, 32)
	samp := cardest.NewSamplingEstimator(ml.NewRNG(seed+3), tab, 500)
	ests := []cardest.Estimator{hist, samp, mlp}
	if err == nil {
		ests = append(ests, mix)
	}
	res := cardest.Evaluate(tab, test, ests...)
	for _, e := range ests {
		s := res[e.Name()]
		t.Rows = append(t.Rows, []string{e.Name(), f2(s.Median), f2(s.P95), f2(s.Max)})
	}
	t.Holds = res["learned-mlp"].Median < res["histogram-independence"].Median
	t.Note = fmt.Sprintf("learned median %.2f vs histogram %.2f", res["learned-mlp"].Median, res["histogram-independence"].Median)
	return t
}

func runE7JoinOrder(seed uint64) *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Join ordering: plan quality vs planning effort",
		Claim:  "RL/MCTS reach near-DP plan quality at a fraction of DP's planning effort; greedy is cheap but worse (§2.1 join order selection)",
		Header: []string{"graph", "n", "planner", "cost / DP", "plans examined"},
	}
	holds := true
	for _, kind := range []workload.JoinGraphKind{workload.Chain, workload.Star, workload.Clique} {
		kindName := [...]string{"chain", "star", "clique"}[kind]
		for _, n := range []int{8, 12} {
			rng := ml.NewRNG(seed + uint64(kind)*100 + uint64(n))
			g := workload.NewJoinGraph(rng, kind, n)
			dp := joinorder.DP(g)
			dpLD := joinorder.LeftDeepCost(g, dp.Order)
			// Random baseline: the mean of 20 uniformly random plans
			// (one sample is far too noisy to be a floor).
			randSum := 0.0
			for i := 0; i < 20; i++ {
				randSum += joinorder.RandomOrder(rng, g).Cost
			}
			randMean := randSum / 20
			results := map[string]joinorder.Result{
				"dp":     {Order: dp.Order, Cost: dpLD, PlansExamined: dp.PlansExamined},
				"greedy": joinorder.Greedy(g),
				"qlearn": (&joinorder.QLearner{}).Plan(rng, g),
				"mcts":   joinorder.MCTS(rng, g, 50*n),
				"random": {Cost: randMean, PlansExamined: 20},
			}
			for _, name := range []string{"dp", "greedy", "qlearn", "mcts", "random"} {
				r := results[name]
				t.Rows = append(t.Rows, []string{kindName, itoa(n), name, g3(r.Cost / dpLD), itoa(r.PlansExamined)})
			}
			if results["mcts"].Cost > randMean || results["qlearn"].Cost > randMean {
				holds = false
			}
		}
	}
	t.Holds = holds
	t.Note = "learned planners beat random everywhere; DP optimal but exponential in effort"
	return t
}

func runE8EndToEndOptimizer(seed uint64) *Table {
	t := &Table{
		ID:     "E8",
		Title:  "End-to-end optimizer: robustness to cardinality errors",
		Claim:  "a latency-feedback-trained planner degrades less than a cost-based planner when statistics are corrupted (§2.1 end-to-end optimizer, Neo)",
		Header: []string{"corruption", "cost-based / optimal", "learned / optimal", "learned wins"},
	}
	const rounds = 5
	wins := 0
	for _, severity := range []float64{0, 1.5, 3.0} {
		var cbSum, nSum float64
		roundWins := 0
		for r := uint64(0); r < rounds; r++ {
			rng := ml.NewRNG(seed + r*977)
			g := workload.NewJoinGraph(rng, workload.Clique, 7)
			cmp := optimizer.RunComparison(rng, g, severity)
			cbSum += cmp.CostBased / cmp.TrueOptimal
			nSum += cmp.Learned / cmp.TrueOptimal
			if cmp.Learned <= cmp.CostBased {
				roundWins++
			}
		}
		t.Rows = append(t.Rows, []string{f2(severity), g3(cbSum / rounds), g3(nSum / rounds),
			fmt.Sprintf("%d/%d", roundWins, rounds)})
		if severity >= 3 {
			wins = roundWins
		}
	}
	t.Holds = wins*2 >= rounds
	t.Note = fmt.Sprintf("learned wins %d/%d rounds at the heaviest corruption", wins, rounds)
	return t
}

func runE9LearnedIndex(seed uint64) *Table {
	t := &Table{
		ID:     "E9",
		Title:  "Learned index vs B+tree: size and search window",
		Claim:  "a learned index is orders of magnitude smaller than a B+tree while keeping bounded search windows (§2.1 learned indexes)",
		Header: []string{"distribution", "keys", "btree bytes", "rmi bytes", "rmi max window", "gapped retrains"},
	}
	rng := ml.NewRNG(seed)
	holds := true
	for _, dist := range []string{"uniform", "clustered"} {
		n := 200000
		seen := map[int64]bool{}
		keys := make([]int64, 0, n)
		for len(keys) < n {
			var k int64
			if dist == "uniform" {
				k = int64(rng.Intn(n * 10))
			} else {
				k = int64(rng.Intn(20))*1_000_000 + int64(rng.Intn(60000))
			}
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		sortInt64s(keys)
		values := make([]uint64, n)
		for i := range values {
			values[i] = uint64(i)
		}
		bt := index.BulkLoad(64, keys, values)
		rmi := learnedidx.BuildRMI(keys, values, 400)
		// Updatable learned index: insert a fresh 10%.
		g := learnedidx.NewGappedIndex(keys, values)
		for i := 0; i < n/10; i++ {
			g.Insert(int64(rng.Intn(n*10))+1, 0)
		}
		t.Rows = append(t.Rows, []string{
			dist, itoa(n), itoa(bt.SizeBytes()), itoa(rmi.SizeBytes()),
			itoa(rmi.MaxSearchWindow()), itoa(g.Retrains),
		})
		if rmi.SizeBytes()*50 > bt.SizeBytes() {
			holds = false
		}
	}
	t.Holds = holds
	t.Note = "RMI model footprint is a tiny fraction of the B+tree"
	return t
}

func sortInt64s(xs []int64) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}

func runE10DataStructureDesign(seed uint64) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Learned KV design: searched vs fixed configurations",
		Claim:  "a design searched for the workload beats fixed read- and write-optimized designs on that workload (§2.1 learned data structures)",
		Header: []string{"workload", "searched cost", "read-opt fixed", "write-opt fixed", "searched policy"},
	}
	params := dstruct.CostParams{N: 1e6}
	mixes := map[string]dstruct.Mix{
		"read-heavy":  {Reads: 0.85, Writes: 0.10, Scans: 0.05},
		"write-heavy": {Reads: 0.10, Writes: 0.85, Scans: 0.05},
		"scan-heavy":  {Reads: 0.15, Writes: 0.15, Scans: 0.70},
	}
	holds := true
	for _, name := range []string{"read-heavy", "write-heavy", "scan-heavy"} {
		mix := mixes[name]
		searched, _ := dstruct.Design(mix, params)
		sc := dstruct.AnalyticCost(searched, mix, params)
		ro := dstruct.AnalyticCost(dstruct.FixedReadOptimized(), mix, params)
		wo := dstruct.AnalyticCost(dstruct.FixedWriteOptimized(), mix, params)
		pol := "leveling"
		if searched.Policy == kv.Tiering {
			pol = "tiering"
		}
		t.Rows = append(t.Rows, []string{name, f3(sc), f3(ro), f3(wo), pol})
		if sc > ro || sc > wo {
			holds = false
		}
	}
	t.Holds = holds
	t.Note = "searched designs dominate fixed ones on every mix (design continuum)"
	return t
}

func runE11LearnedTransactions(seed uint64) *Table {
	t := &Table{
		ID:     "E11",
		Title:  "Learned transactions: forecasting and conflict-aware scheduling",
		Claim:  "learned forecasting beats rule-based under drift; learned scheduling cuts makespan on hot-key bursts (§2.1 transaction management)",
		Header: []string{"component", "method", "metric", "value"},
	}
	// Forecasting.
	rng := ml.NewRNG(seed)
	series := workload.ArrivalSeries(rng, workload.Drifting, 600, 100)
	fres := txnsched.EvaluateForecasters(series, 400,
		&txnsched.Linear{}, txnsched.LastValue{}, txnsched.MovingAverage{Window: 48})
	for _, name := range []string{"learned-linear", "last-value", "moving-average"} {
		t.Rows = append(t.Rows, []string{"forecast(drift)", name, "MAE", f2(fres[name])})
	}
	// Scheduling.
	history := make([]*txn.Transaction, 0, 300)
	for i := 0; i < 300; i++ {
		tx := &txn.Transaction{ID: uint64(i + 1), Duration: 2}
		if rng.Float64() < 0.5 {
			tx.WriteSet = []string{"hot"}
		} else {
			tx.WriteSet = []string{fmt.Sprintf("cold%d", rng.Intn(1000))}
		}
		history = append(history, tx)
	}
	pairs, labels := txnsched.TrainingPairsFromHistory(rng, history, 600)
	var cm txnsched.ConflictModel
	_ = cm.Train(pairs, labels)
	var batch []*txn.Transaction
	for i := 0; i < 20; i++ {
		batch = append(batch, &txn.Transaction{ID: uint64(i + 1), WriteSet: []string{"hot"}, Duration: 2})
	}
	for i := 0; i < 20; i++ {
		batch = append(batch, &txn.Transaction{ID: uint64(100 + i), WriteSet: []string{fmt.Sprintf("c%d", i)}, Duration: 2})
	}
	sched := &txn.Scheduler{MaxConcurrent: 4}
	fifo := sched.Run(batch)
	reordered := (&txnsched.LearnedScheduler{Model: &cm}).Order(append([]*txn.Transaction(nil), batch...))
	learned := sched.Run(reordered)
	t.Rows = append(t.Rows,
		[]string{"schedule(burst)", "fifo", "makespan", itoa(fifo.Makespan)},
		[]string{"schedule(burst)", "learned", "makespan", itoa(learned.Makespan)},
	)
	t.Holds = fres["learned-linear"] < fres["moving-average"] && learned.Makespan < fifo.Makespan
	t.Note = fmt.Sprintf("makespan %d -> %d with learned ordering", fifo.Makespan, learned.Makespan)
	return t
}

func runE12Monitoring(seed uint64) *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Monitoring: diagnosis, MAB auditing, performance prediction",
		Claim:  "learned monitoring beats rules/random across all three monitoring tasks (§2.1 database monitoring)",
		Header: []string{"task", "method", "metric", "value"},
	}
	rng := ml.NewRNG(seed)
	// 1. Root-cause diagnosis.
	train := monitor.GenerateIncidents(rng, 600, 0.12)
	test := monitor.GenerateIncidents(rng, 300, 0.12)
	kc := &monitor.KPICluster{}
	_ = kc.Train(rng, train)
	dres := monitor.EvaluateDiagnosers(test, kc, monitor.ThresholdRules{})
	t.Rows = append(t.Rows,
		[]string{"diagnosis", "kpi-clustering", "accuracy", f3(dres["kpi-clustering"])},
		[]string{"diagnosis", "threshold-rules", "accuracy", f3(dres["threshold-rules"])},
	)
	// 2. Activity monitoring.
	cats := []monitor.ActivityCategory{
		{Name: "admin-ddl", RiskProb: 0.45}, {Name: "bulk-export", RiskProb: 0.30},
		{Name: "app-read", RiskProb: 0.02}, {Name: "app-write", RiskProb: 0.05},
		{Name: "reporting", RiskProb: 0.03},
	}
	const rounds = 2000
	randomRisk := monitor.RunAudits(monitor.NewActivityStream(ml.NewRNG(seed+1), cats),
		monitor.NewRandomSelector(ml.NewRNG(seed+2), len(cats)), rounds)
	mabRisk := monitor.RunAudits(monitor.NewActivityStream(ml.NewRNG(seed+1), cats),
		rl.NewUCB1Bandit(len(cats)), rounds)
	t.Rows = append(t.Rows,
		[]string{"activity-audit", "mab-ucb1", "risk captured", f0(mabRisk)},
		[]string{"activity-audit", "random", "risk captured", f0(randomRisk)},
	)
	// 3. Performance prediction.
	trainB := monitor.GenerateBatches(rng, 60, 8)
	testB := monitor.GenerateBatches(rng, 30, 8)
	var pipe monitor.PipelineModel
	_ = pipe.Train(trainB)
	var gcn monitor.GCNModel
	_ = gcn.Train(trainB)
	pres := monitor.EvaluatePredictors(testB, &gcn, &pipe)
	t.Rows = append(t.Rows,
		[]string{"perf-prediction", "graph-embedding", "MAE", f2(pres["graph-embedding"])},
		[]string{"perf-prediction", "pipeline-model", "MAE", f2(pres["pipeline-model"])},
	)
	t.Holds = dres["kpi-clustering"] > dres["threshold-rules"] &&
		mabRisk > randomRisk &&
		pres["graph-embedding"] < pres["pipeline-model"]
	return t
}

func runE13Security(seed uint64) *Table {
	t := &Table{
		ID:     "E13",
		Title:  "Security: injection detection, discovery, access control",
		Claim:  "learned detectors generalize past rule lists: obfuscated attacks, format variants, purpose policies (§2.1 database security)",
		Header: []string{"task", "method", "metric", "value"},
	}
	rng := ml.NewRNG(seed)
	// Injection.
	trainC := security.GenerateInjectionCorpus(rng, 600)
	testC := security.GenerateInjectionCorpus(rng, 300)
	var tree security.TreeDetector
	_ = tree.Train(trainC)
	sigRep := security.EvaluateDetector(security.SignatureBlacklist{}, testC)
	treeRep := security.EvaluateDetector(&tree, testC)
	t.Rows = append(t.Rows,
		[]string{"sql-injection", "decision-tree", "obfuscated recall", f2(treeRep.ObfuscatedRecall)},
		[]string{"sql-injection", "signatures", "obfuscated recall", f2(sigRep.ObfuscatedRecall)},
		[]string{"sql-injection", "decision-tree", "false positives", f3(treeRep.FalsePositiveRate)},
	)
	// Discovery.
	trainCols := security.GenerateColumns(rng, 400)
	testCols := security.GenerateColumns(rng, 200)
	var ld security.LearnedDiscoverer
	_ = ld.Train(trainCols)
	regexRecall := security.SensitiveRecall(security.RegexRules{}, testCols)
	learnedRecall := security.SensitiveRecall(&ld, testCols)
	t.Rows = append(t.Rows,
		[]string{"data-discovery", "learned-classifier", "sensitive recall", f2(learnedRecall)},
		[]string{"data-discovery", "regex-rules", "sensitive recall", f2(regexRecall)},
	)
	// Access control.
	logReqs := security.GenerateAccessLog(rng, 1000)
	testReqs := security.GenerateAccessLog(rng, 500)
	var la security.LearnedAccess
	_ = la.Train(logReqs)
	staticRep := security.EvaluateAccess(security.StaticACL{}, testReqs)
	learnedRep := security.EvaluateAccess(&la, testReqs)
	t.Rows = append(t.Rows,
		[]string{"access-control", "learned-purpose", "over-grant rate", f3(learnedRep.OverGrant)},
		[]string{"access-control", "static-acl", "over-grant rate", f3(staticRep.OverGrant)},
	)
	t.Holds = treeRep.ObfuscatedRecall > sigRep.ObfuscatedRecall &&
		learnedRecall > regexRecall &&
		learnedRep.OverGrant < staticRep.OverGrant
	return t
}
