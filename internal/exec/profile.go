package exec

import (
	"fmt"
	"sync/atomic"
	"time"

	"aidb/internal/obs"
	"aidb/internal/plan"
)

// OpProfile is one plan operator's runtime profile. The coordinating
// goroutine records wall time and output rows; morsel workers add their
// share of morsel and utilization counts atomically, so a profile is
// exact at any Parallelism setting.
type OpProfile struct {
	// Kind is the operator's short name ("Scan", "HashJoin", ...); Op is
	// its full one-line description (plan.Node.Describe).
	Kind string
	Op   string
	// EstRows is the optimizer's cardinality estimate for this operator,
	// computed at profile-construction time from the same cost model the
	// planner uses — the "estimated" half of the feedback pair.
	EstRows float64

	actualRows   atomic.Int64
	wallNs       atomic.Int64
	morsels      atomic.Int64
	workerSpawns atomic.Int64
	busyWorkers  atomic.Int64
	chunks       atomic.Int64
	peakBytes    atomic.Int64
	pagesRead    atomic.Int64
	pagesPruned  atomic.Int64

	Children []*OpProfile
}

// ActualRows is the operator's measured output cardinality.
func (p *OpProfile) ActualRows() int64 { return p.actualRows.Load() }

// Wall is the operator's inclusive wall time (children included), as
// measured on the coordinating goroutine.
func (p *OpProfile) Wall() time.Duration { return time.Duration(p.wallNs.Load()) }

// Morsels is how many morsels the operator dispatched (0 for operators
// that never partition, e.g. Sort and Limit).
func (p *OpProfile) Morsels() int64 { return p.morsels.Load() }

// WorkerSpawns is how many parallel workers the operator launched
// across all of its morsel runs (0 when it ran serially).
func (p *OpProfile) WorkerSpawns() int64 { return p.workerSpawns.Load() }

// Utilization is the fraction of launched workers that processed at
// least one morsel. A serial operator reports 1 (the coordinator did
// all the work).
func (p *OpProfile) Utilization() float64 {
	spawned := p.workerSpawns.Load()
	if spawned == 0 {
		return 1
	}
	return float64(p.busyWorkers.Load()) / float64(spawned)
}

// Chunks is how many batches the operator emitted downstream.
func (p *OpProfile) Chunks() int64 { return p.chunks.Load() }

// PeakBytes is the largest single batch (by its vector bytes) the
// operator emitted — the streaming pipeline's per-operator memory
// footprint indicator.
func (p *OpProfile) PeakBytes() int64 { return p.peakBytes.Load() }

// PagesRead is how many heap pages a scan decoded (0 for operators that
// read no heap page).
func (p *OpProfile) PagesRead() int64 { return p.pagesRead.Load() }

// PagesPruned is how many heap pages a scan left unread because their
// zones rule out its filter or they hold no live row.
func (p *OpProfile) PagesPruned() int64 { return p.pagesPruned.Load() }

// notePeak raises the peak-batch-bytes high-water mark.
func (p *OpProfile) notePeak(n int64) {
	for {
		cur := p.peakBytes.Load()
		if n <= cur || p.peakBytes.CompareAndSwap(cur, n) {
			return
		}
	}
}

// QueryProfile is the per-operator runtime profile of one executed
// plan, built before execution (so estimates are frozen) and filled in
// during it. A QueryProfile instruments exactly one Run call; every
// counter is atomic because fused pipeline stages record from morsel
// workers.
type QueryProfile struct {
	Root   *OpProfile
	byNode map[plan.Node]*OpProfile
}

// NewQueryProfile builds the profile skeleton for a plan, annotating
// every operator with est's cardinality estimate (nil est selects the
// planner's histogram baseline).
func NewQueryProfile(root plan.Node, est plan.CardinalityEstimator) *QueryProfile {
	if est == nil {
		est = plan.HistogramEstimator{}
	}
	qp := &QueryProfile{byNode: map[plan.Node]*OpProfile{}}
	var build func(n plan.Node) *OpProfile
	build = func(n plan.Node) *OpProfile {
		op := &OpProfile{
			Kind:    opKind(n),
			Op:      n.Describe(),
			EstRows: plan.EstimateRows(n, est),
		}
		qp.byNode[n] = op
		for _, c := range n.Children() {
			op.Children = append(op.Children, build(c))
		}
		return op
	}
	qp.Root = build(root)
	return qp
}

// opKind maps a plan node to its short operator name.
func opKind(n plan.Node) string {
	switch n.(type) {
	case *plan.ScanNode:
		return "Scan"
	case *plan.IndexScanNode:
		return "IndexScan"
	case *plan.FilterNode:
		return "Filter"
	case *plan.JoinNode:
		return "HashJoin"
	case *plan.ProjectNode:
		return "Project"
	case *plan.AggregateNode:
		return "Aggregate"
	case *plan.SortNode:
		return "Sort"
	case *plan.LimitNode:
		return "Limit"
	case *plan.DistinctNode:
		return "Distinct"
	case *plan.ModifyNode:
		return "Modify"
	default:
		return fmt.Sprintf("%T", n)
	}
}

// of returns the profile for n, nil when profiling is off or the node
// is unknown — compile wires each operator to its own profile, so no
// coordinator stack is needed.
func (qp *QueryProfile) of(n plan.Node) *OpProfile {
	if qp == nil {
		return nil
	}
	return qp.byNode[n]
}

// Walk visits every operator pre-order with its depth.
func (qp *QueryProfile) Walk(fn func(op *OpProfile, depth int)) {
	if qp == nil || qp.Root == nil {
		return
	}
	var rec func(op *OpProfile, depth int)
	rec = func(op *OpProfile, depth int) {
		fn(op, depth)
		for _, c := range op.Children {
			rec(c, depth+1)
		}
	}
	rec(qp.Root, 0)
}

// AttachSpans grafts the operator tree under sp as child spans (one
// "op:<Kind>" span per operator, tagged with rows and morsel counts),
// tying executor profiles into the obs tracer. Nil-safe on both sides.
func (qp *QueryProfile) AttachSpans(sp *obs.Span) {
	if qp == nil || qp.Root == nil || sp == nil {
		return
	}
	var rec func(parent *obs.Span, op *OpProfile)
	rec = func(parent *obs.Span, op *OpProfile) {
		c := parent.Graft("op:"+op.Kind, op.Wall())
		c.SetTagf("rows", "est=%.0f,act=%d", op.EstRows, op.ActualRows())
		if m := op.Morsels(); m > 0 {
			c.SetTagf("morsels", "%d", m)
		}
		if w := op.WorkerSpawns(); w > 0 {
			c.SetTagf("workers", "%d,util=%.2f", w, op.Utilization())
		}
		if n := op.Chunks(); n > 0 {
			c.SetTagf("chunks", "%d,peak=%dB", n, op.PeakBytes())
		}
		for _, child := range op.Children {
			rec(c, child)
		}
	}
	rec(sp, qp.Root)
}
