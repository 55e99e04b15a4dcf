package fleetd

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/fleetapi"
	"repro/internal/nn"
)

// The wire side of POST /v1/serve: the body a client sends is read once into
// a pooled buffer and parsed without reflection, and the 200 reply is appended
// into a pooled buffer by fleetapi.AppendServeResponse. Both are held to
// encoding/json byte for byte: a body the parser does not recognise is
// answered by decodeStrict itself, and the reply's bytes are the ones
// json.NewEncoder(w).Encode would write.

// bufferPool holds the buffers request bodies are read into and replies
// appended into.
var bufferPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuffer() *bytes.Buffer { return bufferPool.Get().(*bytes.Buffer) }

// putBuffer recycles b unless a rare large body grew it.
func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= 64<<10 {
		b.Reset()
		bufferPool.Put(b)
	}
}

// decodeServe is decodeStrict for a serve request. The body is read through
// the same bound into a pooled buffer and handed to parseServeRequest; a body
// it does not recognise is replayed into decodeStrict's decoder — the bytes,
// then the read's error — so every refusal is the one decodeStrict gives.
// classes is the closed set a class name is taken from.
func decodeServe(w http.ResponseWriter, req *http.Request, classes []string) (fleetapi.ServeRequest, *fleetapi.Error) {
	buf := getBuffer()
	defer putBuffer(buf)
	_, err := buf.ReadFrom(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if sr, ok := parseServeRequest(buf.Bytes(), classes); ok {
		return sr, validate(sr)
	}
	return decodeFrom[fleetapi.ServeRequest](&replay{buf.Bytes(), err}, "serve request")
}

// replay yields b, then err (io.EOF when nil).
type replay struct {
	b   []byte
	err error
}

func (r *replay) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// parseServeRequest parses the bodies clients send: an object of exactly
// spelled ServeRequest keys; non-negative integers of at most 18 digits with
// no fraction, exponent or leading zero that fit their field; runtime and
// class strings with no escape and no byte outside printable ASCII, each a
// runtime or a configured class. Anything else — a case-folded or unknown
// key, null, an escape, a sign, a float, an empty string — reports !ok and is
// left to decodeStrict. As in decodeStrict, a repeated key keeps its last
// value and nothing after the object is read, so neither needs the fallback;
// nor does a failed read, whose bytes hold the whole object or fail to parse.
// The strings it returns are members of those sets, so nothing refers to b
// afterwards.
func parseServeRequest(b []byte, classes []string) (r fleetapi.ServeRequest, ok bool) {
	p := scanner{b: b}
	if !p.consume('{') {
		return r, false
	}
	for first := true; !p.consume('}'); first = false {
		if !first && !p.consume(',') {
			return r, false
		}
		key, ok := p.str()
		if !ok || !p.consume(':') {
			return r, false
		}
		switch string(key) {
		case "device":
			ok = p.int(&r.Device)
		case "item":
			ok = p.int(&r.Item)
		case "angle":
			ok = p.int(&r.Angle)
		case "seed":
			r.Seed, ok = p.number(64)
		case "items":
			ok = p.int(&r.Items)
		case "scale":
			ok = p.int(&r.Scale)
		case "runtime":
			r.Runtime, ok = p.member(nn.Runtimes())
		case "class":
			r.Class, ok = p.member(classes)
		default:
			return r, false
		}
		if !ok {
			return r, false
		}
	}
	return r, true
}

// scanner walks a JSON body; every method skips the whitespace before its
// token.
type scanner struct {
	b []byte
	i int
}

func (p *scanner) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume reads c if it is the next token.
func (p *scanner) consume(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// str reads a string of printable ASCII with no escape and returns its bytes.
func (p *scanner) str() ([]byte, bool) {
	if !p.consume('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number reads a non-negative integer of at most 18 digits — no sign,
// fraction, exponent or leading zero — below 2^(bits-1). What follows it is
// the caller's next token, so "1.5" fails there.
func (p *scanner) number(bits int) (int64, bool) {
	p.space()
	start, i := p.i, p.i
	var v int64
	for ; i < len(p.b) && p.b[i] >= '0' && p.b[i] <= '9'; i++ {
		if i-start == 18 {
			return 0, false
		}
		v = v*10 + int64(p.b[i]-'0')
	}
	if i == start || (i-start > 1 && p.b[start] == '0') || (bits < 64 && v >= 1<<(bits-1)) {
		return 0, false
	}
	p.i = i
	return v, true
}

// int reads a number into an int field.
func (p *scanner) int(dst *int) bool {
	v, ok := p.number(strconv.IntSize)
	*dst = int(v)
	return ok
}

// member reads a string that is one of set and returns that member.
func (p *scanner) member(set []string) (string, bool) {
	s, ok := p.str()
	if !ok {
		return "", false
	}
	for _, m := range set {
		if string(s) == m {
			return m, true
		}
	}
	return "", false
}

// writeServeResponse writes a served request's 200 reply.
func writeServeResponse(w http.ResponseWriter, resp *fleetapi.ServeResponse) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf := getBuffer()
	defer putBuffer(buf)
	if b, ok := fleetapi.AppendServeResponse(buf.AvailableBuffer(), resp); ok {
		buf.Write(b) // so that a buffer the reply grew is the one the pool keeps
		w.Write(buf.Bytes())
	}
}
