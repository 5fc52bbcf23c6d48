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

// keywords maps each reserved word to itself, so a token's text is the
// map's string and recognising one allocates nothing.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, k := range []string{
		"SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "INSERT", "INTO",
		"VALUES", "CREATE", "TABLE", "INT", "FLOAT", "TEXT", "UPDATE", "SET",
		"DELETE", "JOIN", "ON", "GROUP", "BY", "ORDER", "ASC", "DESC", "LIMIT",
		"AS", "MODEL", "PREDICT", "FEATURES", "WITH", "EVALUATE", "DROP",
		"INDEX", "EXPLAIN", "ANALYZE", "SHOW", "MODELS", "TABLES", "DISTINCT",
		"BETWEEN", "IN", "NULL", "PRIMARY", "KEY", "PREPARE", "EXECUTE",
		"DEALLOCATE", "BEGIN", "COMMIT", "ROLLBACK",
	} {
		m[k] = k
	}
	return m
}()

// keyword returns the reserved word that word spells in any letter case.
func keyword(word string) (string, bool) {
	var up [len("DEALLOCATE")]byte // the longest keyword
	if len(word) > len(up) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		up[i] = c
	}
	kw, ok := keywords[string(up[:len(word)])]
	return kw, ok
}

// SplitStatement takes the first statement off a ';'-separated script:
// stmt is its text, trimmed, and rest what follows its ';'. A ';' inside
// a string literal or a -- comment does not end a statement (the lexer's
// rules for where those begin and end), and empty statements are
// skipped; stmt is "" when the script holds no further statement.
func SplitStatement(script string) (stmt, rest string) {
	for i := 0; i < len(script); i++ {
		switch script[i] {
		case ';':
			if stmt = strings.TrimSpace(script[:i]); stmt != "" {
				return stmt, script[i+1:]
			}
			script, i = script[i+1:], -1
		case '\'':
			// To the closing quote; the two halves of an escaped quote
			// ('') read as one literal ending and the next beginning.
			for i++; i < len(script) && script[i] != '\''; i++ {
			}
		case '-':
			if i+1 < len(script) && script[i+1] == '-' {
				for i < len(script) && script[i] != '\n' {
					i++
				}
			}
		}
	}
	return strings.TrimSpace(script), ""
}

// Lex tokenizes input, returning an error with position info on invalid
// characters or unterminated strings.
func Lex(input string) ([]Token, error) {
	// One allocation for the usual statement: a load script's VALUES
	// list, the densest common input, runs at about two bytes a token.
	toks := make([]Token, 0, len(input)/2+1)
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
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(input[i])) || unicode.IsDigit(rune(input[i])) || input[i] == '_') {
				i++
			}
			word := input[start:i]
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: start})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: start})
			}
		case unicode.IsDigit(rune(c)):
			start := i
			isFloat := false
			for i < n && (unicode.IsDigit(rune(input[i])) || input[i] == '.') {
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
			for i < n && unicode.IsDigit(rune(input[i])) {
				i++
			}
			if i == ds {
				return nil, fmt.Errorf("sql: expected parameter number after '$' at position %d", start)
			}
			toks = append(toks, Token{Kind: TokParam, Text: input[ds:i], Pos: start})
		case strings.ContainsRune("(),.*=+-/;", rune(c)):
			toks = append(toks, Token{Kind: TokSymbol, Text: input[i : i+1], Pos: i})
			i++
		case c == '<' || c == '>' || c == '!':
			start := i
			i++
			if i < n && input[i] == '=' {
				i++
			}
			op := input[start:i]
			if op == "!" {
				return nil, fmt.Errorf("sql: stray '!' at position %d", start)
			}
			toks = append(toks, Token{Kind: TokSymbol, Text: op, Pos: start})
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at position %d", c, i)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}
