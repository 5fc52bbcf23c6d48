package sql

import "sync"

// Front is one statement's front end held in buffers that outlive it:
// its tokens as Normalize rewrites them, its plan-cache key and the
// literals Normalize took out. A served statement reads its text into a
// Front from a pool (ReadFront) and releases it once nothing it holds is
// in use, so a statement whose plan is cached allocates no token slice,
// no key and no literal list.
type Front struct {
	Toks   []Token
	Key    []byte // Normalize's key; empty when there is no plan to cache
	Params []any  // Normalize's literals, in $N order
}

var fronts = sync.Pool{New: func() any { return new(Front) }}

// The largest buffers a released Front keeps. A statement with more
// tokens than this (a bulk INSERT) allocates its own, as Lex does, so a
// pool that serves point statements never pins a load script's worth.
const (
	maxKeptTokens   = 256
	maxKeptKeyBytes = 4096
)

// ReadFront lexes and normalizes input into a pooled Front. The error is
// Lex's; the Front is then nil.
func ReadFront(input string) (*Front, error) {
	f := fronts.Get().(*Front)
	toks, err := AppendLex(f.Toks[:0], input)
	if err != nil {
		f.Release()
		return nil, err
	}
	f.Toks, f.Key, f.Params = normalizeInto(toks, f.Key[:0], f.Params[:0])
	clear(toks[len(f.Toks):]) // the signs Normalize folded into literals; Release clears the rest
	return f, nil
}

// Release returns f to the pool. Neither f nor any slice it holds may be
// used after; strings taken from its tokens may. Its tokens and literals
// are cleared, so a pooled Front pins no statement's text.
func (f *Front) Release() {
	if cap(f.Toks) > maxKeptTokens || cap(f.Key) > maxKeptKeyBytes {
		return
	}
	clear(f.Toks)
	clear(f.Params)
	fronts.Put(f)
}

// ExecuteArgs reads f as `EXECUTE name [(arg, ...)] [;]` where every arg
// is a literal: a number, signed or not, or a string. It appends the
// values the parser and evaluator give those literals to f.Params, so
// they are valid until Release. ok is false for any other text — other
// arguments, NULL, a number out of range, a malformed line — which is
// the parser's to read and, where it fails, to report.
func (f *Front) ExecuteArgs() (name string, args []any, ok bool) {
	toks := f.Toks
	at := func(i int, kind TokenKind, text string) bool {
		return i < len(toks) && toks[i].Kind == kind && (text == "" || toks[i].Text == text)
	}
	if !at(0, TokKeyword, "EXECUTE") || !at(1, TokIdent, "") {
		return "", nil, false
	}
	args, i := f.Params[:0], 2
	if at(i, TokSymbol, "(") {
		i++
		for !at(i, TokSymbol, ")") || len(args) > 0 {
			neg := at(i, TokSymbol, "-")
			if neg {
				i++
			}
			t := toks[i]
			if t.Kind != TokInt && t.Kind != TokFloat && (neg || t.Kind != TokString) {
				return "", nil, false
			}
			v, ok := literalValue(t, neg)
			if !ok {
				return "", nil, false
			}
			args = append(args, v)
			if i++; !at(i, TokSymbol, ",") {
				break
			}
			i++
		}
		if !at(i, TokSymbol, ")") {
			return "", nil, false
		}
		i++
	}
	if at(i, TokSymbol, ";") {
		i++
	}
	if !at(i, TokEOF, "") {
		return "", nil, false
	}
	f.Params = args
	return toks[1].Text, args, true
}
