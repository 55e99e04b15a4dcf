package fleetd

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleetapi"
)

// serveBodies are serve request bodies, one for each case the parser reads
// and each it leaves to decodeStrict. FuzzStrictDecode starts from them.
var serveBodies = []string{
	`{"device":3,"item":1,"angle":2,"seed":42,"items":8,"scale":2,"runtime":"int8","class":"batch"}`,
	" \t\r\n{ \"device\" : 3 , \"item\":1}\n",
	`{"device":-0,"seed":-9}`,
	`{"Device":1}`,                    // case-folded key
	`{"devcie":1}`,                    // unknown key
	`null`,                            // null body
	`{"device":null}`,                 // null value
	`{"runtime":"int\u0038"}`,         // string escape
	`{"class":"b\u0061tch"}`,          // string escape
	`{"class":"realtime"}`,            // not a configured class
	`{"runtime":"tpu"}`,               // not a runtime
	`{"class":"h\u00e9"}`,             // non-ASCII class, escaped
	`{"class":"hé"}`,                  // non-ASCII class
	"{\"class\":\"\xff\"}",            // invalid UTF-8
	`{"device":1.0}`,                  // float
	`{"device":1e2}`,                  // exponent
	`{"device":01}`,                   // leading zero
	`{"seed":1234567890123456789}`,    // 19 digits
	`{"seed":9999999999999999999}`,    // 19 digits, past an int64
	`{"device":3000000000}`,           // past a 32-bit int
	`{"device":99999999999999999999}`, // past any int
	`{"device":"3"}`,                  // string for a number
	`{"device":1,"device":2}`,         // duplicate key
	`{"runtime":"int8","runtime":""}`, // duplicate key
	`{"device":1} {"device":2}`,       // trailing data
	`{"device":1}x`,                   // trailing garbage
	`{"device":1,}`,                   // trailing comma
	`{"device":1 "item":2}`,           // missing comma
	"{\f\"device\":1}",                // form feed is not JSON space
	`{"runtime":"","class":""}`,       // empty strings
	`{"device":1`,                     // truncated
	``,                                // empty body
	`[]`,                              // not an object
	`{"angle":99}`,                    // parsed, then refused by Validate
	`{"item":8}`,                      // parsed, then refused by Validate
}

// serveDecodeClasses is the closed class set the comparisons parse against.
// The last two are not printable ASCII, which the parser leaves to
// decodeStrict: a raw "\xff" in a body decodes to U+FFFD, not to that class.
var serveDecodeClasses = []string{"interactive", "batch", "a<b&c", "h\u00e9", "\xff"}

// checkServeDecode posts body through decodeServe and through decodeStrict
// and fails unless both return the same request and the same refusal.
func checkServeDecode(t *testing.T, body func() io.Reader) {
	t.Helper()
	post := func() *http.Request { return httptest.NewRequest("POST", "/v1/serve", body()) }
	got, gotErr := decodeServe(httptest.NewRecorder(), post(), serveDecodeClasses)
	want, wantErr := decodeStrict[fleetapi.ServeRequest](httptest.NewRecorder(), post(), "serve request")
	if got != want || !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("serve decode differs from decodeStrict:\n got %+v %+v\nwant %+v %+v", got, gotErr, want, wantErr)
	}
}

// TestServeDecodeMatchesStrict: every fallback body, and the bodies whose read
// fails — past the 1 MiB bound, with a value complete before it or not, and a
// connection that drops mid-body — decode as decodeStrict decodes them.
func TestServeDecodeMatchesStrict(t *testing.T) {
	for _, body := range serveBodies {
		checkServeDecode(t, func() io.Reader { return strings.NewReader(body) })
	}
	for _, body := range []string{
		"{" + strings.Repeat(" ", 2<<20) + "}",
		`{"device":1}` + strings.Repeat(" ", 2<<20),
		`{"device":1,"item":1}`,
	} {
		checkServeDecode(t, func() io.Reader { return strings.NewReader(body) })
		checkServeDecode(t, func() io.Reader {
			return &replay{[]byte(body[:len(body)/2]), io.ErrUnexpectedEOF}
		})
	}
	checkServeDecode(t, func() io.Reader { return &replay{nil, errors.New("connection reset")} })
}

// awkwardNames are class and runtime strings whose JSON spelling is not the
// string itself: HTML-escaped characters, a quote and a backslash, the line
// separators encoding/json escapes, control bytes, non-ASCII and invalid
// UTF-8.
var awkwardNames = []string{
	"", "int8", "interactive", "<b>&amp;", `say "hi"`, `back\slash`, "line\u2028sep\u2029",
	"tab\there\n", "\x00\x1f", "del\x7f", "héllo", "bad\xffutf8", "\xc3", "emoji 😀",
}

// checkReply writes resp through writeServeResponse and through
// fleetapi.WriteJSON — the encoding/json reply it replaces — and fails unless
// status, headers and body are the same bytes.
func checkReply(t *testing.T, resp fleetapi.ServeResponse) {
	t.Helper()
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	writeServeResponse(got, &resp)
	fleetapi.WriteJSON(want, http.StatusOK, resp)
	if got.Code != want.Code || !reflect.DeepEqual(got.Header(), want.Header()) || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%+v:\n got %d %v %q\nwant %d %v %q", resp, got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
	}
}

// TestServeReplyBytes: the 200 reply is encoding/json's bytes — scores on
// both sides of the 1e-6 and 1e21 switches between its 'f' and 'e' forms,
// signed zero, the extremes, the empty body of a non-finite score, and every
// awkward name — in a table and over random responses.
func TestServeReplyBytes(t *testing.T) {
	base := fleetapi.ServeResponse{
		Pred: 3, TrueClass: 1, Score: 0.8125, Runtime: "int8", Class: "interactive", Bytes: 1234, BatchSize: 4,
		QueueNanos: 5678, StageNanos: fleetapi.ServeStageNanos{Sensor: 1, ISP: 2, Codec: 3, Inference: 4}, TotalNanos: 9999,
	}
	checkReply(t, base)
	for _, score := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, -1e-7, 1.5e-10, 1e-100,
		1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1.2345e22, 1e100, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		r := base
		r.Score = score
		checkReply(t, r)
	}
	for _, name := range awkwardNames {
		r := base
		r.Runtime, r.Class = name, name
		checkReply(t, r)
	}
	r := base
	r.Pred, r.TrueClass, r.Bytes, r.BatchSize = -1, math.MinInt32, math.MaxInt32, 0
	r.QueueNanos, r.TotalNanos, r.StageNanos.Inference = math.MinInt64, math.MaxInt64, -1
	checkReply(t, r)

	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\n", "\x01", "\x7f", "é", "\xff", "😀"}
	name := func() string {
		var b []byte
		for n := rng.Intn(6); n > 0; n-- {
			b = append(b, alphabet[rng.Intn(len(alphabet))]...)
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		r := fleetapi.ServeResponse{
			Pred: rng.Intn(5), TrueClass: rng.Intn(5), Runtime: name(), Class: name(),
			Bytes: rng.Intn(1 << 20), BatchSize: rng.Intn(65), QueueNanos: rng.Int63() >> rng.Intn(63),
			StageNanos: fleetapi.ServeStageNanos{Sensor: rng.Int63n(1e9), ISP: rng.Int63n(1e9), Codec: rng.Int63n(1e9), Inference: rng.Int63n(1e9)},
			TotalNanos: rng.Int63(),
		}
		switch i % 3 {
		case 0:
			r.Score = rng.Float64()
		case 1:
			r.Score = math.Float64frombits(rng.Uint64()) // any exponent, NaN and ±Inf included
		default:
			r.Score = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		checkReply(t, r)
	}
}
