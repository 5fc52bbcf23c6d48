// Package sql implements aidb's SQL front end: a hand-written lexer and
// recursive-descent parser for a practical subset of SQL, extended with
// the AISQL statements the DB4AI half of the paper calls for
// (CREATE MODEL / EVALUATE MODEL / PREDICT expressions).
package sql

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexer output.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSymbol // punctuation and operators
	TokParam  // positional parameter placeholder: $1, $2, ...
)

// Token is one lexeme with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased
	Pos  int
}

// keywordsByInitial lists the reserved words by their first letter, so
// recognising a word compares it with a handful of them at most.
var keywordsByInitial = func() (t [26][]string) {
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO",
		"VALUES", "CREATE", "TABLE", "INT", "FLOAT", "TEXT", "UPDATE", "SET",
		"DELETE", "JOIN", "ON", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT",
		"AS", "MODEL", "PREDICT", "FEATURES", "WITH", "EVALUATE", "DROP",
		"INDEX", "EXPLAIN", "ANALYZE", "SHOW", "MODELS", "TABLES", "DISTINCT",
		"BETWEEN", "IN", "NULL", "PRIMARY", "KEY", "PREPARE", "EXECUTE",
		"DEALLOCATE", "BEGIN", "COMMIT", "ROLLBACK",
	} {
		t[k[0]-'A'] = append(t[k[0]-'A'], k)
	}
	return t
}()

// keyword returns the reserved word that word spells in any letter case;
// the token's text is then the list's string, so it allocates nothing.
func keyword(word string) (string, bool) {
	c := word[0] | 0x20 // lower case, for a letter
	if c < 'a' || c > 'z' {
		return "", false
	}
next:
	for _, kw := range keywordsByInitial[c-'a'] {
		if len(kw) != len(word) {
			continue
		}
		for i := 1; i < len(word); i++ {
			c := word[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if c != kw[i] {
				continue next
			}
		}
		return kw, true
	}
	return "", false
}

// Byte classes for the lexer, read from unicode's tables once: the
// lexer takes a byte for the rune of the same number, so a byte that
// numbers a Latin-1 letter (é, µ) counts as a letter.
const (
	nameStart = 1 << iota // a letter or '_'
	namePart              // a letter, a digit or '_'
	digit
	symbol // punctuation that is a token by itself
)

var byteClass = func() (t [256]uint8) {
	for c := range t {
		if unicode.IsLetter(rune(c)) || c == '_' {
			t[c] |= nameStart | namePart
		}
		if unicode.IsDigit(rune(c)) {
			t[c] |= namePart | digit
		}
	}
	for _, c := range []byte("(),.*=+-/;") {
		t[c] |= symbol
	}
	return t
}()

// SplitStatement takes the first statement off a ';'-separated script:
// stmt is its text, trimmed, and rest what follows its ';'. A ';' inside
// a string literal or a -- comment does not end a statement (the lexer's
// rules for where those begin and end), and pieces that hold no token
// (blank, or only comments) are skipped; stmt is "" when the script
// holds no further statement.
func SplitStatement(script string) (stmt, rest string) {
	tokens := false // whether the piece so far holds a token
	for i := 0; i < len(script); i++ {
		switch c := script[i]; {
		case c == ';' && tokens:
			return strings.TrimSpace(script[:i]), script[i+1:]
		case c == ';':
			script, i = script[i+1:], -1
		case c == '-' && i+1 < len(script) && script[i+1] == '-':
			for i < len(script) && script[i] != '\n' {
				i++
			}
		case c == '\'':
			// To the closing quote; the two halves of an escaped quote
			// ('') read as one literal ending and the next beginning.
			tokens = true
			for i++; i < len(script) && script[i] != '\''; i++ {
			}
		case c > ' ':
			tokens = true
		}
	}
	if tokens {
		stmt = strings.TrimSpace(script)
	}
	return stmt, ""
}

// Lex tokenizes input, returning an error with position info on invalid
// characters or unterminated strings.
func Lex(input string) ([]Token, error) { return AppendLex(nil, input) }

// AppendLex is Lex appending to dst, which it grows once to room for the
// usual statement: a load script's VALUES list, the densest common
// input, runs at about two bytes a token.
func AppendLex(dst []Token, input string) ([]Token, error) {
	toks := dst
	if room := len(input)/2 + 1; cap(toks)-len(toks) < room {
		toks = append(make([]Token, 0, len(toks)+room), toks...)
	}
	i := 0
	n := len(input)
	for i < n {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && input[i+1] == '-': // line comment
			for i < n && input[i] != '\n' {
				i++
			}
		case byteClass[c]&nameStart != 0:
			start := i
			for i < n && byteClass[input[i]]&namePart != 0 {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case byteClass[c]&digit != 0:
			start := i
			isFloat := false
			for i < n && (byteClass[input[i]]&digit != 0 || input[i] == '.') {
				if input[i] == '.' {
					if isFloat {
						return nil, fmt.Errorf("sql: invalid number at position %d", start)
					}
					isFloat = true
				}
				i++
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: input[start:i], Pos: start})
		case c == '\'':
			i++
			start := i
			escaped := false
			for {
				if i >= n {
					return nil, fmt.Errorf("sql: unterminated string at position %d", start-1)
				}
				if input[i] == '\'' {
					if i+1 >= n || input[i+1] != '\'' {
						break
					}
					escaped = true // '' is a quote inside the literal
					i++
				}
				i++
			}
			text := input[start:i]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			i++
			toks = append(toks, Token{Kind: TokString, Text: text, Pos: start})
		case c == '$':
			start := i
			i++
			ds := i
			for i < n && byteClass[input[i]]&digit != 0 {
				i++
			}
			if i == ds {
				return nil, fmt.Errorf("sql: expected parameter number after '$' at position %d", start)
			}
			toks = append(toks, Token{Kind: TokParam, Text: input[ds:i], Pos: start})
		case byteClass[c]&symbol != 0:
			toks = append(toks, Token{Kind: TokSymbol, Text: input[i : i+1], Pos: i})
			i++
		case c == '<' || c == '>' || c == '!':
			start := i
			i++
			if i < n && (input[i] == '=' || c == '<' && input[i] == '>') {
				i++
			}
			op := input[start:i]
			switch op {
			case "!":
				return nil, fmt.Errorf("sql: stray '!' at position %d", start)
			case "<>":
				op = "!=" // one spelling, so both share a plan-cache key
			}
			toks = append(toks, Token{Kind: TokSymbol, Text: op, Pos: start})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}
