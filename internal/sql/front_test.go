package sql_test

import (
	"math"
	"testing"

	"aidb/internal/exec"
	"aidb/internal/sql"
)

// checkExecuteArgs holds the EXECUTE path to the parser on one line.
// Where ReadFront fails, the parser fails with the same error. Where
// ExecuteArgs reads the line, the parser reads an EXECUTE of the same
// name whose arguments exec.Eval evaluates to the same values, of the
// same types, bit for bit. Any other line is left to the parser, whose
// outcome is then the session's. It reports whether ExecuteArgs read
// the line.
func checkExecuteArgs(t testing.TB, line string) bool {
	t.Helper()
	stmt, parseErr := sql.Parse(line)
	f, err := sql.ReadFront(line)
	if err != nil {
		if parseErr == nil || parseErr.Error() != err.Error() {
			t.Fatalf("%q: ReadFront fails with %v, the parser with %v", line, err, parseErr)
		}
		return false
	}
	defer f.Release()
	name, args, ok := f.ExecuteArgs()
	if !ok {
		return false
	}
	ex, isExec := stmt.(*sql.ExecStmt)
	if parseErr != nil || !isExec {
		t.Fatalf("%q: read as EXECUTE %s %v, but the parser gives %v, %v", line, name, args, stmt, parseErr)
	}
	if ex.Name != name || len(ex.Args) != len(args) {
		t.Fatalf("%q: read as EXECUTE %s with %d arguments, the parser's has %s and %d", line, name, len(args), ex.Name, len(ex.Args))
	}
	for i, a := range ex.Args {
		want, err := exec.Eval(a, exec.NewScope(nil), nil, nil)
		if err != nil {
			t.Fatalf("%q: read argument %d as %v, but it does not evaluate: %v", line, i+1, args[i], err)
		}
		if !sameValue(args[i], want) {
			t.Fatalf("%q: argument %d read as %T %v, evaluates to %T %v", line, i+1, args[i], args[i], want, want)
		}
	}
	return true
}

// sameValue compares two values by type and, for a float, by its bits,
// so -0 and 0 differ.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case int64, string:
		return a == b
	}
	return false
}

var executeLines = []struct {
	line string
	took bool // whether ExecuteArgs reads it
}{
	{"EXECUTE get(4711)", true},
	{"execute get (1, 2, 3)", true},
	{"EXECUTE get(9223372036854775807, -9223372036854775808)", true},
	{"EXECUTE get(-5, - 7, 0, -0)", true},
	{"EXECUTE get(1.5, -2.25, 0.0, -0.0, 3.)", true},
	{"EXECUTE get('bob', '', 'it''s', '''', 'a;b', '-- x', '$1')", true},
	{"EXECUTE get", true},
	{"EXECUTE get()", true},
	{"EXECUTE get(1);", true},
	{"EXECUTE get;", true},
	{"  EXECUTE\tget ( 7 ) ; ", true},
	{"EXECUTE get(1) -- trailing comment", true},
	{"EXECUTE get(NULL)", false},
	{"EXECUTE get(1 + 2)", false},
	{"EXECUTE get((3))", false},
	{"EXECUTE get(-(3))", false},
	{"EXECUTE get(- -3)", false},
	{"EXECUTE get(-'x')", false},
	{"EXECUTE get(+3)", false},
	{"EXECUTE get(id)", false},
	{"EXECUTE get(9223372036854775808)", false},
	{"EXECUTE get(-9223372036854775809)", false},
	{"EXECUTE get(1,)", false},
	{"EXECUTE get(,1)", false},
	{"EXECUTE get(1 2)", false},
	{"EXECUTE get(1", false},
	{"EXECUTE get 1", false},
	{"EXECUTE get(1);;", false},
	{"EXECUTE get(1); SELECT 1", false},
	{"EXECUTE", false},
	{"EXECUTE 5", false},
	{"EXECUTE SELECT", false},
	{"EXECUTE get('open", false},
	{"EXECUTE get(1.2.3)", false},
	{"EXECUTE get($1)", false},
	{"EXECUTE get(!)", false},
	{"SELECT 1", false},
}

// TestExecuteArgsDifferential runs checkExecuteArgs over literal lines of
// every kind — int64 extremes, signs, floats, strings with doubled
// quotes, no list, a closing ';' — and over lines it must leave to the
// parser: NULL, expressions, out-of-range numbers and malformed text.
func TestExecuteArgsDifferential(t *testing.T) {
	for _, c := range executeLines {
		if took := checkExecuteArgs(t, c.line); took != c.took {
			t.Errorf("%q: read off the tokens: %v, want %v", c.line, took, c.took)
		}
	}
}

// FuzzExecuteArgs searches for a line that ExecuteArgs reads otherwise
// than the parser and evaluator do. The seed corpus runs with the
// tests; `go test -fuzz FuzzExecuteArgs ./internal/sql/` searches.
func FuzzExecuteArgs(f *testing.F) {
	for _, c := range executeLines {
		f.Add(c.line)
	}
	f.Fuzz(func(t *testing.T, line string) { checkExecuteArgs(t, line) })
}
