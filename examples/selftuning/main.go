// Selftuning: the AI4DB loop — learned components acting on a database
// from beside it: an RL tuner picks knobs for the running workload mix,
// the index advisor mines the queries the database actually ran (SQL over
// system.statements), a view advisor adapts materialized views across a
// workload shift, and a forecaster predicts arrival rates to provision
// ahead of a spike.
package main

import (
	"fmt"
	"log"

	"aidb/internal/core"
	"aidb/internal/idxadvisor"
	"aidb/internal/knob"
	"aidb/internal/ml"
	"aidb/internal/txnsched"
	"aidb/internal/viewadvisor"
	"aidb/internal/workload"
)

func main() {
	// --- Knob tuning: the RL tuner vs shipped defaults ---
	mix := knob.WorkloadMix{Write: 0.6, Scan: 0.2, Read: 0.2}
	surface := knob.NewSurface(ml.NewRNG(9), 0.01)
	cfg := (&knob.QTune{Rng: ml.NewRNG(8)}).Tune(surface, mix, 150)
	fmt.Printf("knob tuning: regret vs optimal = %.3f (0 = perfect)\n", surface.Regret(cfg, mix))
	fmt.Printf("  e.g. %s=%.2f  %s=%.2f\n\n",
		knob.KnobNames[0], cfg[0], knob.KnobNames[1], cfg[1])

	// --- Index advising from the observed query stream ---
	db := core.Open()
	if _, err := db.Exec("CREATE TABLE events (user_id INT, kind INT, ts INT, payload TEXT)"); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO events VALUES (%d, %d, %d, 'e')", i%50, i%5, i)); err != nil {
			log.Fatal(err)
		}
	}
	// The observed workload hits user_id with selective predicates.
	for i := 0; i < 150; i++ {
		if _, err := db.Exec(fmt.Sprintf("SELECT payload FROM events WHERE user_id BETWEEN %d AND %d", i%45, i%45+1)); err != nil {
			log.Fatal(err)
		}
	}
	recs, err := idxadvisor.StatementsViaSQL(db.Engine())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("index advisor recommends:")
	for _, c := range idxadvisor.TopCandidates(idxadvisor.Candidates(recs), 2) {
		fmt.Printf("  CREATE INDEX ON %s (%s)\n", c.Table, c.Column)
	}
	fmt.Println()

	// --- View advising across a workload shift ---
	env := viewadvisor.Env{NumTemplates: 8, ScanCost: 100, ViewCost: 5, MaintCost: 250}
	hotA := []float64{40, 30, 1, 1, 1, 1, 1, 1}
	hotB := []float64{1, 1, 1, 1, 1, 1, 40, 30}
	phases := []viewadvisor.Phase{{Rates: hotA, Epochs: 8}, {Rates: hotB, Epochs: 8}}
	static := viewadvisor.Simulate(ml.NewRNG(1), env, phases, viewadvisor.NewStaticGreedy(env), 2)
	adaptive := viewadvisor.Simulate(ml.NewRNG(1), env, phases, viewadvisor.NewRL(ml.NewRNG(2), env), 2)
	fmt.Printf("materialized views under drift: static cost %.0f, adaptive RL cost %.0f (oracle %.0f)\n\n",
		static.TotalCost, adaptive.TotalCost, adaptive.OracleCost)

	// --- Workload forecasting ---
	history := workload.ArrivalSeries(ml.NewRNG(3), workload.Diurnal, 400, 120)
	forecaster := &txnsched.Linear{}
	if err := forecaster.Fit(history); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecast: current rate %.0f qps, predicted in 4 ticks: %.0f qps\n",
		history[len(history)-1], forecaster.Predict(history, 4))
}
