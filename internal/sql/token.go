// Package sql implements the paper's extended SQL surface: a standard
// subset (CREATE TABLE/INDEX, INSERT, SELECT, UPDATE, DELETE, SET @var,
// BEGIN TRANSACTION ... COMMIT/ROLLBACK) plus the entangled extensions of
// §2 and §3.1:
//
//	SELECT expr [AS @var], ... INTO ANSWER Name
//	WHERE (cols) IN (SELECT ... FROM ... WHERE ...)
//	  AND (exprs) IN ANSWER Name
//	CHOOSE 1
//
//	BEGIN TRANSACTION WITH TIMEOUT <n> <unit>
//
// Entangled SELECTs compile to the internal/eq intermediate representation;
// scripts compile to core.Program bodies.
package sql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/types"
)

// tokenKind classifies lexer tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokAtVar // @name
	tokSym   // punctuation and operators
)

type token struct {
	kind  tokenKind
	text  string // identifier (upper-cased for keywords via keyword()), literal text, or symbol
	param int32  // the literal's parameter number from 1 in its statement's shape; 0 when the shape keeps it
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	case tokString:
		return fmt.Sprintf("'%s'", t.text)
	case tokAtVar:
		return "@" + t.text
	default:
		return t.text
	}
}

// lex splits src into tokens. Strings use single quotes with ” escapes.
func lex(src string) ([]token, error) {
	// A token averages more than four bytes of source with its spacing, so
	// this capacity holds a typical script without growing.
	toks := make([]token, 0, len(src)/4+1)
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				i++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := i
			for i < n && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			toks = append(toks, token{kind: tokIdent, text: src[start:i]})
		case unicode.IsDigit(rune(c)):
			start := i
			for i < n && unicode.IsDigit(rune(src[i])) {
				i++
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i]})
		case c == '\'':
			i++
			start := i
			escaped := false
			closed := false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' {
						escaped = true
						i += 2
						continue
					}
					closed = true
					break
				}
				i++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", i)
			}
			text := src[start:i]
			if escaped {
				text = strings.ReplaceAll(text, "''", "'")
			}
			toks = append(toks, token{kind: tokString, text: text})
			i++
		case c == '@':
			i++
			start := i
			for i < n && (unicode.IsLetter(rune(src[i])) || unicode.IsDigit(rune(src[i])) || src[i] == '_') {
				i++
			}
			if start == i {
				return nil, fmt.Errorf("sql: bare @ at offset %d", start)
			}
			toks = append(toks, token{kind: tokAtVar, text: src[start:i]})
		case c == '<':
			if i+1 < n && (src[i+1] == '=' || src[i+1] == '>') {
				toks = append(toks, token{kind: tokSym, text: src[i : i+2]})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSym, text: "<"})
				i++
			}
		case c == '>':
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{kind: tokSym, text: ">="})
				i += 2
			} else {
				toks = append(toks, token{kind: tokSym, text: ">"})
				i++
			}
		case c == '!':
			if i+1 < n && src[i+1] == '=' {
				toks = append(toks, token{kind: tokSym, text: "<>"})
				i += 2
			} else {
				return nil, fmt.Errorf("sql: unexpected '!' at offset %d", i)
			}
		case strings.ContainsRune("(),;.=+-*", rune(c)):
			toks = append(toks, token{kind: tokSym, text: string(c)})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

// keyword reports whether tok is the given keyword (case-insensitive).
func (t token) isKeyword(kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// shapeKey appends to key the shape of the statement toks holds, and to
// lits its parameters' values. The shape is each token's kind and text,
// except that a literal is a parameter: its kind alone goes into the key,
// and the token gets its parameter number (from 1). A number the parser
// reads itself stays in the key: one right after a keyword (LIMIT 5,
// CHOOSE 1), and one too large for an INT, which the parser rejects. Two
// statements with one key parse alike but for their parameters.
func shapeKey(key []byte, toks []token, lits []types.Value) ([]byte, []types.Value) {
	n := len(lits)
	for i := range toks {
		t := &toks[i]
		switch t.kind {
		case tokString:
			lits = append(lits, types.Str(t.text))
			t.param = int32(len(lits) - n)
		case tokNumber:
			v, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil || i > 0 && toks[i-1].kind == tokIdent {
				break
			}
			lits = append(lits, types.Int(v))
			t.param = int32(len(lits) - n)
		}
		if t.param > 0 {
			key = append(key, byte(t.kind)|0x80, 0)
			continue
		}
		key = append(append(append(key, byte(t.kind)), t.text...), 0)
	}
	return key, lits
}

// rebase points the texts of toks' non-parameter tokens into key, which
// shapeKey built from them, so that a statement parsed from toks holds on
// to its key and not to the script the tokens came from.
func rebase(key string, toks []token) {
	off := 0
	for i := range toks {
		off++ // the kind
		if toks[i].param == 0 {
			n := len(toks[i].text)
			toks[i].text = key[off : off+n]
			off += n
		}
		off++ // the terminator
	}
}
