// Package csrc is a small C-like source front-end for the prog IR: it lets
// test programs be written as text files and run with cmd/cecsan-run (or
// compiled via Compile), instead of hand-building IR with the prog package.
//
// The language (informal grammar in the package README section of Compile's
// doc comment) covers what the repository's workloads exercise: struct and
// global declarations, functions, locals (allocas), malloc/calloc/free,
// typed array indexing, struct field access, loops with recorded
// scalar-evolution facts, libc and external calls, and recv/fgets input.
package csrc

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct // single or multi-char operator / punctuation
)

// token is one lexeme with its source line for diagnostics.
type token struct {
	kind tokKind
	text string
	val  int64
	line int
}

// lexer tokenizes source text.
type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

// puncts are the multi-character operators, longest first.
var puncts = []string{
	"<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "->", "+=", "-=",
	"+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "=", "(", ")",
	"{", "}", "[", "]", ",", ";", "!",
}

// lex tokenizes the whole source, reporting the first error.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (isIdentChar(l.src[l.pos])) {
				l.pos++
			}
			l.toks = append(l.toks, token{kind: tokIdent, text: l.src[start:l.pos], line: l.line})
		case unicode.IsDigit(rune(c)):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'':
			if err := l.lexChar(); err != nil {
				return nil, err
			}
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		default:
			if !l.lexPunct() {
				return nil, fmt.Errorf("csrc:%d: unexpected character %q", l.line, string(c))
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, line: l.line})
	return l.toks, nil
}

func isIdentChar(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// lexNumber scans decimal or 0x hex integers.
func (l *lexer) lexNumber() error {
	start := l.pos
	base := int64(10)
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		base = 16
		l.pos += 2
	}
	for l.pos < len(l.src) && isNumChar(l.src[l.pos], base) {
		l.pos++
	}
	text := l.src[start:l.pos]
	var v int64
	var err error
	if base == 16 {
		_, err = fmt.Sscanf(text, "0x%x", &v)
		if err != nil {
			_, err = fmt.Sscanf(text, "0X%x", &v)
		}
	} else {
		_, err = fmt.Sscanf(text, "%d", &v)
	}
	if err != nil {
		return fmt.Errorf("csrc:%d: bad number %q", l.line, text)
	}
	l.toks = append(l.toks, token{kind: tokInt, text: text, val: v, line: l.line})
	return nil
}

func isNumChar(c byte, base int64) bool {
	if unicode.IsDigit(rune(c)) {
		return true
	}
	if base == 16 {
		return (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
	}
	return false
}

// lexChar scans a character literal ('A', '\n', '\0', '\\', '\”).
func (l *lexer) lexChar() error {
	start := l.line
	l.pos++ // opening quote
	if l.pos >= len(l.src) {
		return fmt.Errorf("csrc:%d: unterminated character literal", start)
	}
	var v int64
	if l.src[l.pos] == '\\' {
		l.pos++
		if l.pos >= len(l.src) {
			return fmt.Errorf("csrc:%d: unterminated escape", start)
		}
		switch l.src[l.pos] {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case '0':
			v = 0
		case '\\':
			v = '\\'
		case '\'':
			v = '\''
		default:
			return fmt.Errorf("csrc:%d: unknown escape \\%c", start, l.src[l.pos])
		}
		l.pos++
	} else {
		v = int64(l.src[l.pos])
		l.pos++
	}
	if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
		return fmt.Errorf("csrc:%d: unterminated character literal", start)
	}
	l.pos++
	l.toks = append(l.toks, token{kind: tokInt, text: "'c'", val: v, line: start})
	return nil
}

// lexString scans a double-quoted string with the same escapes.
func (l *lexer) lexString() error {
	start := l.line
	l.pos++
	var b strings.Builder
	for l.pos < len(l.src) && l.src[l.pos] != '"' {
		c := l.src[l.pos]
		if c == '\n' {
			return fmt.Errorf("csrc:%d: newline in string literal", start)
		}
		if c == '\\' {
			l.pos++
			if l.pos >= len(l.src) {
				break
			}
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '0':
				b.WriteByte(0)
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			default:
				return fmt.Errorf("csrc:%d: unknown escape \\%c", start, l.src[l.pos])
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	if l.pos >= len(l.src) {
		return fmt.Errorf("csrc:%d: unterminated string literal", start)
	}
	l.pos++
	l.toks = append(l.toks, token{kind: tokString, text: b.String(), line: start})
	return nil
}

// lexPunct matches the longest operator at the cursor.
func (l *lexer) lexPunct() bool {
	for _, p := range puncts {
		if strings.HasPrefix(l.src[l.pos:], p) {
			l.toks = append(l.toks, token{kind: tokPunct, text: p, line: l.line})
			l.pos += len(p)
			return true
		}
	}
	return false
}
