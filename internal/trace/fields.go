package trace

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Field cursors for the line parsers. A cursor reads a numeric field in
// the same pass that finds its end. When the field is a plain digit
// token its value comes back ready; otherwise the value is -1 (no plain
// token reads negative) and toInt, toInt64 or toFloat hands the token
// to strconv. A value is therefore the one strconv would return, bit
// for bit, and an error is strconv's own.

// scanInt reads the leading digits of s. n is their value, or -1 when
// there are none or more than 18 (which could overflow an int64).
func scanInt(s string) (n int64, end int) {
	for end < len(s) {
		d := s[end] - '0'
		if d > 9 {
			break
		}
		n = n*10 + int64(d)
		end++
	}
	if end == 0 || end > 18 {
		n = -1
	}
	return n, end
}

// pow10 holds the powers of ten float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17}

// scanFloat reads the leading digits[.digits] of s: read as one
// integer its digits are m, and k of them follow the point. With at
// most 19 bytes, the point included, and m below 2^52, f = m / 10^k,
// the exact path strconv.ParseFloat takes for the same token: float64(m)
// and 10^k (k <= 17, as a digit precedes the point) are exact, so the
// one division rounds correctly and the bits agree. Otherwise f is -1.
func scanFloat(s string) (f float64, end int) {
	var m uint64
	dot := -1
	for end < len(s) {
		c := s[end]
		if d := c - '0'; d <= 9 {
			m = m*10 + uint64(d)
		} else if c != '.' || dot >= 0 || end == 0 {
			break
		} else {
			dot = end
		}
		end++
	}
	if end == 0 || end > 19 || m>>52 != 0 {
		return -1, end
	}
	k := 0
	if dot >= 0 {
		k = end - dot - 1
	}
	return float64(m) / pow10[k], end
}

// toInt64 is strconv.ParseInt(tok, 10, 64) for a field a cursor read
// as n.
func toInt64(n int64, tok string) (int64, error) {
	if n >= 0 {
		return n, nil
	}
	return strconv.ParseInt(tok, 10, 64)
}

// toInt is strconv.Atoi(tok) for a field a cursor read as n.
func toInt(n int64, tok string) (int, error) {
	if n >= 0 && int64(int(n)) == n {
		return int(n), nil
	}
	return strconv.Atoi(tok)
}

// toFloat is strconv.ParseFloat(tok, 64) for a field a cursor read as
// f.
func toFloat(f float64, tok string) (float64, error) {
	if f >= 0 {
		return f, nil
	}
	return strconv.ParseFloat(tok, 64)
}

// wsCursor yields the fields of a line separated by runs of spaces and
// tabs, in order; once the line is used up, fields are empty.
type wsCursor struct{ s string }

func isWS(c byte) bool { return c == ' ' || c == '\t' }

func (c *wsCursor) skipWS() string {
	s := c.s
	i := 0
	for i < len(s) && isWS(s[i]) {
		i++
	}
	return s[i:]
}

// finish ends the field s that a number prefix of length j began,
// reporting whether the prefix was the whole field.
func (c *wsCursor) finish(s string, j int) (tok string, whole bool) {
	whole = j == len(s) || isWS(s[j])
	for j < len(s) && !isWS(s[j]) {
		j++
	}
	c.s = s[j:]
	return s[:j], whole
}

func (c *wsCursor) next() string {
	tok, _ := c.finish(c.skipWS(), 0)
	return tok
}

func (c *wsCursor) int() (int64, string) {
	s := c.skipWS()
	n, j := scanInt(s)
	tok, whole := c.finish(s, j)
	if !whole {
		n = -1
	}
	return n, tok
}

func (c *wsCursor) float() (float64, string) {
	s := c.skipWS()
	f, j := scanFloat(s)
	tok, whole := c.finish(s, j)
	if !whole {
		f = -1
	}
	return f, tok
}

// countWS reports how many whitespace-separated fields line has, up to
// max. Parsers call it only to word a field-count error.
func countWS(line string, max int) int {
	c := wsCursor{line}
	n := 0
	for n < max && c.next() != "" {
		n++
	}
	return n
}

// csvCursor yields the comma-separated fields of a line in order, each
// trimmed of surrounding white space. An empty field ("a,,b") is still
// a field; done reports that every field has been read.
type csvCursor struct {
	s    string
	done bool
}

func (c *csvCursor) next() string {
	if c.done {
		return ""
	}
	i := strings.IndexByte(c.s, ',')
	if i < 0 {
		c.done = true
		return trimField(c.s)
	}
	f := c.s[:i]
	c.s = c.s[i+1:]
	return trimField(f)
}

// finish ends the field that a number prefix of length j began. If the
// prefix was the whole field, it returns the prefix; otherwise the
// field is read as next reads it and whole is false.
func (c *csvCursor) finish(j int) (tok string, whole bool) {
	if j == 0 || (j < len(c.s) && c.s[j] != ',') {
		return c.next(), false
	}
	tok = c.s[:j]
	if j == len(c.s) {
		c.s, c.done = "", true
	} else {
		c.s = c.s[j+1:]
	}
	return tok, true
}

func (c *csvCursor) int() (int64, string) {
	n, j := scanInt(c.s)
	tok, whole := c.finish(j)
	if !whole {
		n = -1
	}
	return n, tok
}

func (c *csvCursor) float() (float64, string) {
	f, j := scanFloat(c.s)
	tok, whole := c.finish(j)
	if !whole {
		f = -1
	}
	return f, tok
}

// countCSV reports how many comma-separated fields line has, up to max.
func countCSV(line string, max int) int {
	return min(strings.Count(line, ",")+1, max)
}

// trimField is strings.TrimSpace, skipping the work when both ends are
// printable ASCII: every white-space rune TrimSpace removes is either
// an ASCII byte no greater than ' ' or starts with a byte >= 0x80.
func trimField(s string) string {
	if len(s) > 0 && printable(s[0]) && printable(s[len(s)-1]) {
		return s
	}
	return strings.TrimSpace(s)
}

func printable(c byte) bool { return c > ' ' && c < utf8.RuneSelf }
