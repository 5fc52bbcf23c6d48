package sql

import "strconv"

// Normalize is the plan cache's key function. For a SELECT, UPDATE or
// DELETE — bare, or as the body of EXPLAIN [ANALYZE] or PREPARE name AS —
// it returns the statement's key and the literals it took out of it, and
// rewrites toks in place so the parser sees what the key says:
//
//   - key is the body's token text in one spelling — keywords
//     upper-cased, strings re-quoted, spacing fixed: SQL that lexes back
//     to the same tokens, so two statements share a key only if they
//     share a plan;
//   - a literal after WHERE, ON or SET becomes $1…$n in order of
//     appearance, its value (int64, float64 or string) lands in params,
//     and a sign the parser would fold into the literal is folded into
//     the value;
//   - a literal that shapes the output or the plan stays in the key as
//     written: the select list (it names the result columns), GROUP BY,
//     ORDER BY and LIMIT;
//   - a body that spells a $N itself is left exactly as written (its
//     parameters are the client's to bind), and so is one where, in a
//     predicate, a minus stands before a parenthesis or another minus:
//     the parser may fold that in ways a parameter cannot follow.
//
// Every other statement comes back untouched with key "": there is no
// plan to cache. Token positions are kept, so a parse error still points
// into the client's text. No AST is built.
func Normalize(toks []Token) (out []Token, key string, params []any) {
	start := bodyStart(toks)
	if start < 0 {
		return toks, "", nil
	}
	body := toks[start:]
	if n := countLiterals(body); n > 0 {
		body, params = takeLiterals(body, make([]any, 0, n))
		toks = toks[:start+len(body)]
		if len(params) == 0 {
			params = nil // every literal was one the parser will reject
		}
	}
	return toks, tokenText(body), params
}

// bodyStart finds the SELECT, UPDATE or DELETE a statement plans: at its
// head or behind EXPLAIN [ANALYZE] or PREPARE name AS. -1 when it has none.
func bodyStart(toks []Token) int {
	is := func(i int, kind TokenKind, text string) bool {
		return i < len(toks) && toks[i].Kind == kind && (text == "" || toks[i].Text == text)
	}
	i := 0
	switch {
	case is(0, TokKeyword, "EXPLAIN"):
		i = 1
		if is(1, TokKeyword, "ANALYZE") {
			i = 2
		}
	case is(0, TokKeyword, "PREPARE") && is(1, TokIdent, "") && is(2, TokKeyword, "AS"):
		i = 3
	}
	if is(i, TokKeyword, "SELECT") || is(i, TokKeyword, "UPDATE") || is(i, TokKeyword, "DELETE") {
		return i
	}
	return -1
}

// inPredicate follows the clauses: literals are taken out after WHERE,
// ON and SET and left alone from GROUP BY, ORDER BY or LIMIT on.
func inPredicate(t Token, in bool) bool {
	if t.Kind == TokKeyword {
		switch t.Text {
		case "WHERE", "ON", "SET":
			return true
		case "GROUP", "ORDER", "LIMIT":
			return false
		}
	}
	return in
}

// countLiterals counts the literal tokens takeLiterals may take out of a
// statement body (ending in TokEOF); 0 when there are none or the body
// must stay as written.
func countLiterals(body []Token) int {
	n, in := 0, false
	for i, t := range body {
		in = inPredicate(t, in)
		switch t.Kind {
		case TokParam:
			return 0
		case TokInt, TokFloat, TokString:
			if in {
				n++
			}
		case TokSymbol:
			if next := body[i+1]; in && t.Text == "-" && next.Kind == TokSymbol && (next.Text == "(" || next.Text == "-") {
				return 0
			}
		}
	}
	return n
}

// takeLiterals walks a statement body the way the parser will, turns
// each literal of its predicates into a TokParam at the literal's
// position (a sign the parser would fold disappears into the value) and
// appends the values to params. It returns the body, now shorter by the
// folded signs, and params.
func takeLiterals(body []Token, params []any) ([]Token, []any) {
	w, in := 0, false
	operand := false // the previous token ends an operand, so - and * are binary
	for r := 0; r < len(body); r++ {
		t := body[r]
		in = inPredicate(t, in)
		ends := false
		switch t.Kind {
		case TokIdent:
			ends = true
		case TokKeyword:
			ends = t.Text == "PREDICT" // reads as a name when no parenthesis follows
		case TokSymbol:
			switch t.Text {
			case ")":
				ends = true
			case "*":
				ends = !operand // a star, not a product
			case "-":
				if next := body[r+1]; in && !operand && (next.Kind == TokInt || next.Kind == TokFloat) {
					if v, ok := literalValue(next, true); ok {
						params = append(params, v)
						t = Token{Kind: TokParam, Text: strconv.Itoa(len(params)), Pos: t.Pos}
						r++ // the sign and the number are one literal
						ends = true
					}
				}
			}
		case TokInt, TokFloat, TokString:
			ends = true
			if !in {
				break
			}
			if v, ok := literalValue(t, false); ok {
				params = append(params, v)
				t = Token{Kind: TokParam, Text: strconv.Itoa(len(params)), Pos: t.Pos}
			}
		}
		operand = ends
		body[w] = t
		w++
	}
	return body[:w], params
}

// literalValue is the value the parser gives a literal token; ok is
// false for a number it rejects (out of range), which stays in the text
// for the parser to report.
func literalValue(t Token, negate bool) (v any, ok bool) {
	switch t.Kind {
	case TokInt:
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if negate {
			i = -i
		}
		return i, err == nil
	case TokFloat:
		f, err := strconv.ParseFloat(t.Text, 64)
		if negate {
			f = -f
		}
		return f, err == nil
	}
	return t.Text, true
}

// tokenText renders tokens (up to TokEOF, a closing ';' dropped) as SQL
// that lexes back to them, spaced the way people write it — the key is
// what system.plan_cache shows.
func tokenText(toks []Token) string {
	var buf [256]byte
	b := buf[:0]
	sym := func(i int, text string) bool { return i >= 0 && toks[i].Kind == TokSymbol && toks[i].Text == text }
	name := func(i int) bool {
		return i >= 0 && (toks[i].Kind == TokIdent || (toks[i].Kind == TokKeyword && toks[i].Text == "PREDICT"))
	}
	for i, t := range toks {
		if t.Kind == TokEOF || (sym(i, ";") && toks[i+1].Kind == TokEOF) {
			break
		}
		// One space between tokens, but none inside f(x, y) or t.col.
		// Only punctuation that cannot fuse with a neighbour is set tight.
		tight := i == 0 || sym(i, ")") || sym(i, ",") || sym(i-1, "(") || (sym(i, "(") && name(i-1)) ||
			(sym(i, ".") && name(i-1)) || (sym(i-1, ".") && name(i-2))
		if !tight {
			b = append(b, ' ')
		}
		switch t.Kind {
		case TokParam:
			b = append(append(b, '$'), t.Text...)
		case TokString:
			b = append(b, '\'')
			for j := 0; j < len(t.Text); j++ {
				if t.Text[j] == '\'' {
					b = append(b, '\'')
				}
				b = append(b, t.Text[j])
			}
			b = append(b, '\'')
		default:
			b = append(b, t.Text...)
		}
	}
	return string(b)
}
