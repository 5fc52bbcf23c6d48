package catalog

// CmpOp is a comparison of a value x with a constant k, as the set of
// outcomes of ordering x against k that it accepts: CmpLT (x below k),
// CmpEQ and CmpGT (x above k), so `<=` is CmpLT|CmpEQ. The planner's
// estimates and index bounds, the executor's filters and a page's zone
// (ZoneCond) all read a comparison in this one form.
type CmpOp uint8

// The comparisons, one per SQL spelling.
const (
	CmpLT CmpOp = 1 << iota
	CmpEQ
	CmpGT
	CmpNE = CmpLT | CmpGT
	CmpLE = CmpLT | CmpEQ
	CmpGE = CmpEQ | CmpGT
)

// CmpOf is the comparison a SQL operator spells (`<>` lexes as `!=`),
// or 0 when op is no comparison.
func CmpOf(op string) CmpOp { return spelled[op] }

var spelled = map[string]CmpOp{"<": CmpLT, "<=": CmpLE, "=": CmpEQ, ">=": CmpGE, ">": CmpGT, "!=": CmpNE}

// Holds reports whether op accepts the ordering x, which is -1, 0 or 1
// as cmp.Compare returns it.
func (op CmpOp) Holds(x int) bool { return op>>(x+1)&1 != 0 }

// Mirrored is op with its operands swapped: k < x is x > k.
func (op CmpOp) Mirrored() CmpOp { return op&CmpEQ | (op&CmpLT)<<2 | (op&CmpGT)>>2 }
