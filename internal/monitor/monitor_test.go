package monitor

import (
	"testing"

	"aidb/internal/ml"
	"aidb/internal/rl"
)

func TestGenerateIncidentsBounded(t *testing.T) {
	rng := ml.NewRNG(1)
	inc := GenerateIncidents(rng, 200, 0.1)
	if len(inc) != 200 {
		t.Fatalf("got %d incidents", len(inc))
	}
	for _, q := range inc {
		for k, v := range q.KPIs {
			if v < 0 || v > 1 {
				t.Fatalf("KPI %d = %v out of [0,1]", k, v)
			}
		}
		if q.Truth < 0 || q.Truth >= NumRootCauses {
			t.Fatalf("bad truth %v", q.Truth)
		}
	}
}

func TestKPIClusterBeatsThresholds(t *testing.T) {
	rng := ml.NewRNG(2)
	train := GenerateIncidents(rng, 600, 0.12)
	test := GenerateIncidents(rng, 300, 0.12)
	kc := &KPICluster{}
	if err := kc.Train(rng, train); err != nil {
		t.Fatal(err)
	}
	res := EvaluateDiagnosers(test, kc, ThresholdRules{})
	t.Logf("clustering %.3f vs thresholds %.3f (DBA asks: %d)", res["kpi-clustering"], res["threshold-rules"], kc.DBAAsks)
	if res["kpi-clustering"] <= res["threshold-rules"] {
		t.Errorf("clustering accuracy %.3f should beat threshold rules %.3f", res["kpi-clustering"], res["threshold-rules"])
	}
	if res["kpi-clustering"] < 0.8 {
		t.Errorf("clustering accuracy %.3f too low", res["kpi-clustering"])
	}
	if kc.DBAAsks > 2*int(NumRootCauses) {
		t.Errorf("DBA was asked %d times, should be once per cluster", kc.DBAAsks)
	}
}

func TestKPIClusterFlagsUnknownIncidents(t *testing.T) {
	rng := ml.NewRNG(3)
	train := GenerateIncidents(rng, 400, 0.08)
	kc := &KPICluster{}
	if err := kc.Train(rng, train); err != nil {
		t.Fatal(err)
	}
	known := GenerateIncidents(rng, 50, 0.08)
	knownCount := 0
	for _, q := range known {
		if kc.IsKnown(q) {
			knownCount++
		}
	}
	if knownCount < 45 {
		t.Errorf("only %d/50 in-distribution incidents recognized", knownCount)
	}
	// A wildly out-of-distribution KPI state must be flagged new.
	weird := SlowQuery{KPIs: [NumKPIs]float64{0, 0, 0, 0, 1, 0}}
	if kc.IsKnown(weird) {
		t.Error("out-of-distribution incident not flagged as new cluster")
	}
}

func TestBanditCapturesMoreRiskThanRandom(t *testing.T) {
	cats := []ActivityCategory{
		{Name: "admin-ddl", RiskProb: 0.45},
		{Name: "bulk-export", RiskProb: 0.30},
		{Name: "app-read", RiskProb: 0.02},
		{Name: "app-write", RiskProb: 0.05},
		{Name: "reporting", RiskProb: 0.03},
	}
	const rounds = 2000
	randomRisk := RunAudits(NewActivityStream(ml.NewRNG(4), cats), NewRandomSelector(ml.NewRNG(5), len(cats)), rounds)
	ucbRisk := RunAudits(NewActivityStream(ml.NewRNG(4), cats), rl.NewUCB1Bandit(len(cats)), rounds)
	thomRisk := RunAudits(NewActivityStream(ml.NewRNG(4), cats), rl.NewThompsonBandit(ml.NewRNG(6), len(cats)), rounds)
	t.Logf("captured risk: random %.0f, ucb1 %.0f, thompson %.0f over %d audits", randomRisk, ucbRisk, thomRisk, rounds)
	if ucbRisk <= randomRisk {
		t.Errorf("UCB1 (%.0f) should capture more risk than random (%.0f)", ucbRisk, randomRisk)
	}
	if thomRisk <= randomRisk {
		t.Errorf("Thompson (%.0f) should capture more risk than random (%.0f)", thomRisk, randomRisk)
	}
}

func TestGCNBeatsPipelineOnConcurrency(t *testing.T) {
	rng := ml.NewRNG(7)
	train := GenerateBatches(rng, 60, 8)
	test := GenerateBatches(rng, 30, 8)
	var pipe PipelineModel
	if err := pipe.Train(train); err != nil {
		t.Fatal(err)
	}
	var gcn GCNModel
	if err := gcn.Train(train); err != nil {
		t.Fatal(err)
	}
	res := EvaluatePredictors(test, &gcn, &pipe)
	t.Logf("MAE: graph %.2f vs pipeline %.2f", res["graph-embedding"], res["pipeline-model"])
	if res["graph-embedding"] >= res["pipeline-model"] {
		t.Errorf("graph model MAE %.2f should beat pipeline %.2f (E12 claim)", res["graph-embedding"], res["pipeline-model"])
	}
	if res["graph-embedding"] > 10 {
		t.Errorf("graph model MAE %.2f too high", res["graph-embedding"])
	}
}

func TestPredictorsOnIsolatedQueries(t *testing.T) {
	// With no sharing, both models should be accurate (interference = 0).
	rng := ml.NewRNG(8)
	batches := GenerateBatches(rng, 20, 1) // single-query batches: no edges
	var pipe PipelineModel
	if err := pipe.Train(batches); err != nil {
		t.Fatal(err)
	}
	res := EvaluatePredictors(batches, &pipe)
	if res["pipeline-model"] > 5 {
		t.Errorf("pipeline MAE %.2f on isolated queries, want near 0", res["pipeline-model"])
	}
}
