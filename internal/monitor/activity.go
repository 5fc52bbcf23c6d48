package monitor

import "aidb/internal/ml"

// ActivityCategory is a class of database activity (by user role/action
// type) with a latent risk level the monitor must discover.
type ActivityCategory struct {
	Name string
	// RiskProb is the probability an activity of this category is risky.
	RiskProb float64
}

// ActivityStream generates activities and scores audits.
type ActivityStream struct {
	Categories []ActivityCategory
	rng        *ml.RNG
}

// NewActivityStream builds a stream over the categories.
func NewActivityStream(rng *ml.RNG, cats []ActivityCategory) *ActivityStream {
	return &ActivityStream{Categories: cats, rng: rng}
}

// Audit simulates auditing one activity from category c, returning 1 if
// it was risky.
func (s *ActivityStream) Audit(c int) float64 {
	if s.rng.Float64() < s.Categories[c].RiskProb {
		return 1
	}
	return 0
}

// Selector chooses which category to audit each round. An rl.Bandit is
// one as it is: the learned activity monitor (the MAB formulation of
// Grushka-Cohen et al.).
type Selector interface {
	Select() int
	Update(cat int, risky float64)
}

// RandomSelector audits a uniformly random category — the "sample
// something" baseline.
type RandomSelector struct {
	N   int
	rng *ml.RNG
}

// NewRandomSelector builds the baseline over n categories.
func NewRandomSelector(rng *ml.RNG, n int) *RandomSelector {
	return &RandomSelector{N: n, rng: rng}
}

// Select implements Selector.
func (r *RandomSelector) Select() int { return r.rng.Intn(r.N) }

// Update implements Selector.
func (*RandomSelector) Update(int, float64) {}

// RunAudits runs rounds audit rounds with a budget of one audit per round
// and returns the total risk captured (number of risky activities found).
func RunAudits(stream *ActivityStream, sel Selector, rounds int) float64 {
	total := 0.0
	for i := 0; i < rounds; i++ {
		c := sel.Select()
		r := stream.Audit(c)
		sel.Update(c, r)
		total += r
	}
	return total
}
