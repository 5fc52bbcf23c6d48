package knob

import (
	"testing"

	"aidb/internal/ml"
)

var oltp = WorkloadMix{Write: 0.7, Scan: 0.1, Read: 0.2}
var olap = WorkloadMix{Write: 0.05, Scan: 0.85, Read: 0.1}

func TestSurfaceOptimumIsOptimal(t *testing.T) {
	rng := ml.NewRNG(1)
	s := NewSurface(rng, 0)
	opt := s.Optimum(oltp)
	optV := s.OptimalThroughput(oltp)
	for trial := 0; trial < 200; trial++ {
		var c Config
		for k := range c {
			c[k] = rng.Float64()
		}
		if v := s.throughputNoiseless(c, oltp); v > optV+1e-9 {
			t.Fatalf("found config %v better than claimed optimum (%v > %v)", c, v, optV)
		}
	}
	if r := s.Regret(opt, oltp); r > 1e-9 {
		t.Errorf("regret at optimum = %v, want 0", r)
	}
}

func TestSurfaceWorkloadDependence(t *testing.T) {
	rng := ml.NewRNG(2)
	s := NewSurface(rng, 0)
	a, b := s.Optimum(oltp), s.Optimum(olap)
	diff := 0.0
	for k := range a {
		d := a[k] - b[k]
		diff += d * d
	}
	if diff < 0.01 {
		t.Errorf("optima for different mixes nearly identical (dist^2=%v); surface not workload-dependent", diff)
	}
}

func TestSurfaceCountsEvaluations(t *testing.T) {
	rng := ml.NewRNG(3)
	s := NewSurface(rng, 0)
	s.Throughput(DefaultConfig(), oltp)
	s.Throughput(DefaultConfig(), oltp)
	if s.Evaluations != 2 {
		t.Errorf("Evaluations = %d, want 2", s.Evaluations)
	}
}

func TestConfigClamp(t *testing.T) {
	c := Config{-1, 2, 0.5}
	c = c.clamp()
	if c[0] != 0 || c[1] != 1 || c[2] != 0.5 {
		t.Errorf("clamp = %v", c)
	}
}

func TestTunersRespectBudget(t *testing.T) {
	rng := ml.NewRNG(4)
	tuners := []Tuner{
		RandomSearch{Rng: rng},
		GridSearch{Levels: 3},
		CoordinateDescent{},
		&CDBTune{Rng: rng},
		&QTune{Rng: rng},
	}
	for _, tn := range tuners {
		s := NewSurface(ml.NewRNG(5), 0.01)
		tn.Tune(s, oltp, 60)
		if s.Evaluations > 60 {
			t.Errorf("%s used %d evaluations with budget 60", tn.Name(), s.Evaluations)
		}
	}
}

func TestRLBeatsDefaultsAndApproachesOptimum(t *testing.T) {
	rng := ml.NewRNG(6)
	s := NewSurface(ml.NewRNG(7), 0.01)
	tuner := &CDBTune{Rng: rng}
	cfg := tuner.Tune(s, oltp, 200)
	rlRegret := s.Regret(cfg, oltp)
	defRegret := s.Regret(DefaultConfig(), oltp)
	t.Logf("CDBTune regret %.4f vs default %.4f", rlRegret, defRegret)
	if rlRegret >= defRegret {
		t.Errorf("RL tuner (regret %.4f) should beat shipped defaults (%.4f)", rlRegret, defRegret)
	}
	if rlRegret > 0.25 {
		t.Errorf("RL tuner regret %.4f; expected within 25%% of optimum at budget 200", rlRegret)
	}
}

// TestQTuneImprovesOverDefaults: the query-aware tuner aidb-tune runs,
// started cold on one mix, beats the shipped defaults.
func TestQTuneImprovesOverDefaults(t *testing.T) {
	mix := WorkloadMix{Write: 0.5, Scan: 0.3, Read: 0.2}
	s := NewSurface(ml.NewRNG(9), 0.01)
	cfg := (&QTune{Rng: ml.NewRNG(8)}).Tune(s, mix, 250)
	regret, defRegret := s.Regret(cfg, mix), s.Regret(DefaultConfig(), mix)
	if regret >= defRegret {
		t.Errorf("tuning regret %.3f should beat defaults %.3f", regret, defRegret)
	}
	if regret > 0.5 {
		t.Errorf("tuning regret %.3f too high at budget 250", regret)
	}
	if s.Throughput(cfg, mix) <= 0 {
		t.Error("throughput should be positive")
	}
}

func TestRLBeatsGridAtEqualBudget(t *testing.T) {
	const budget = 150
	seedSurface := func() *Surface { return NewSurface(ml.NewRNG(8), 0.01) }
	sg := seedSurface()
	gridCfg := GridSearch{Levels: 3}.Tune(sg, oltp, budget)
	sr := seedSurface()
	rlCfg := (&CDBTune{Rng: ml.NewRNG(9)}).Tune(sr, oltp, budget)
	gridRegret := sg.Regret(gridCfg, oltp)
	rlRegret := sr.Regret(rlCfg, oltp)
	t.Logf("grid regret %.4f vs RL %.4f at budget %d", gridRegret, rlRegret, budget)
	if rlRegret >= gridRegret {
		t.Errorf("RL regret %.4f should be below grid regret %.4f (paper claim E1)", rlRegret, gridRegret)
	}
}

func TestQTuneAdaptsAcrossPhases(t *testing.T) {
	// Phased workload: after tuning several OLTP-ish phases, a QTune
	// critic that saw workload features should tune a *new* mix with a
	// small budget better than a fresh CDBTune (which starts from zero).
	phases := []WorkloadMix{
		{Write: 0.8, Scan: 0.1, Read: 0.1},
		{Write: 0.6, Scan: 0.2, Read: 0.2},
		{Write: 0.2, Scan: 0.6, Read: 0.2},
		{Write: 0.1, Scan: 0.8, Read: 0.1},
	}
	target := WorkloadMix{Write: 0.4, Scan: 0.4, Read: 0.2}
	run := func(seed uint64) (float64, float64) {
		surface := NewSurface(ml.NewRNG(seed), 0.01)
		qt := &QTune{Rng: ml.NewRNG(seed + 1)}
		for _, ph := range phases {
			qt.Tune(surface, ph, 120)
		}
		qtCfg := qt.Tune(surface, target, 40) // small budget on new mix
		cb := &CDBTune{Rng: ml.NewRNG(seed + 2)}
		cbCfg := cb.Tune(surface, target, 40)
		return surface.Regret(qtCfg, target), surface.Regret(cbCfg, target)
	}
	qtWins := 0
	const rounds = 5
	for seed := uint64(10); seed < 10+rounds; seed++ {
		q, c := run(seed * 31)
		t.Logf("seed %d: qtune regret %.4f, cdbtune regret %.4f", seed, q, c)
		if q <= c {
			qtWins++
		}
	}
	if qtWins < 3 {
		t.Errorf("QTune won only %d/%d rounds on the novel mix; workload features should transfer", qtWins, rounds)
	}
}

func TestCoordinateDescentImprovesOnDefaults(t *testing.T) {
	s := NewSurface(ml.NewRNG(20), 0)
	cfg := CoordinateDescent{}.Tune(s, olap, 120)
	if s.Regret(cfg, olap) >= s.Regret(DefaultConfig(), olap) {
		t.Error("coordinate descent should beat defaults")
	}
}
