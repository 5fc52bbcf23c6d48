package rl

import (
	"math"

	"aidb/internal/ml"
)

// MCTSState is the environment interface for Monte-Carlo tree search.
// Implementations must be value-like: Apply returns a new state and must
// not mutate the receiver.
type MCTSState interface {
	// Actions enumerates legal actions; empty means terminal.
	Actions() []int
	// Apply returns the successor state after taking action a.
	Apply(a int) MCTSState
	// Reward is the terminal reward (higher is better); it is only
	// consulted when Actions() is empty.
	Reward() float64
	// Key uniquely identifies the state for transposition handling.
	Key() string
}

// MCTS runs UCT search over an MCTSState.
type MCTS struct {
	// C is the UCT exploration constant (default sqrt(2)).
	C float64
	// RolloutDepth caps random rollout length (default: until terminal).
	RolloutDepth int

	rng *ml.RNG
}

// NewMCTS builds a searcher drawing rollout randomness from rng.
func NewMCTS(rng *ml.RNG) *MCTS { return &MCTS{rng: rng} }

type mctsNode struct {
	state    MCTSState
	actions  []int
	children map[int]*mctsNode
	visits   float64
	total    float64
}

// Search runs the given number of UCT iterations from root and returns the
// most-visited action at the root, along with its mean value. It panics if
// root is terminal.
func (m *MCTS) Search(root MCTSState, iterations int) (int, float64) {
	actions := root.Actions()
	if len(actions) == 0 {
		panic("rl: MCTS.Search on terminal state")
	}
	rn := &mctsNode{state: root, actions: actions, children: map[int]*mctsNode{}}
	for it := 0; it < iterations; it++ {
		m.simulate(rn)
	}
	// Ranging over actions, not the children map, breaks a visit tie
	// toward the earliest action, so a seeded search is repeatable.
	bestA, bestVisits, bestVal := actions[0], -1.0, 0.0
	for _, a := range actions {
		ch, ok := rn.children[a]
		if ok && ch.visits > bestVisits {
			bestVisits = ch.visits
			bestA = a
			bestVal = ch.total / ch.visits
		}
	}
	return bestA, bestVal
}

func (m *MCTS) simulate(n *mctsNode) float64 {
	if len(n.actions) == 0 {
		r := n.state.Reward()
		n.visits++
		n.total += r
		return r
	}
	// Expansion: pick an untried action if any.
	var chosen int = -1
	for _, a := range n.actions {
		if _, ok := n.children[a]; !ok {
			chosen = a
			break
		}
	}
	var reward float64
	if chosen >= 0 {
		next := n.state.Apply(chosen)
		child := &mctsNode{state: next, actions: next.Actions(), children: map[int]*mctsNode{}}
		n.children[chosen] = child
		reward = m.rollout(next)
		child.visits++
		child.total += reward
	} else {
		c := m.C
		if c == 0 {
			c = math.Sqrt2
		}
		bestA, bestU := n.actions[0], math.Inf(-1)
		for _, a := range n.actions {
			ch := n.children[a]
			u := ch.total/ch.visits + c*math.Sqrt(math.Log(n.visits+1)/ch.visits)
			if u > bestU {
				bestU, bestA = u, a
			}
		}
		reward = m.simulate(n.children[bestA])
	}
	n.visits++
	n.total += reward
	return reward
}

func (m *MCTS) rollout(s MCTSState) float64 {
	depth := 0
	for {
		acts := s.Actions()
		if len(acts) == 0 {
			return s.Reward()
		}
		if m.RolloutDepth > 0 && depth >= m.RolloutDepth {
			return s.Reward()
		}
		s = s.Apply(acts[m.rng.Intn(len(acts))])
		depth++
	}
}
