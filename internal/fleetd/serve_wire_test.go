package fleetd

import (
	"errors"
	"io"
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
