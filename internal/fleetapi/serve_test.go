package fleetapi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// awkwardStrings are the strings whose JSON spelling is not the string
// itself: HTML-escaped characters, a quote and a backslash, the two line
// separators encoding/json escapes, control bytes, DEL, non-ASCII and
// invalid UTF-8.
var awkwardStrings = []string{
	"", "int8", "interactive", "<b>&amp;", `say "hi"`, `back\slash`, "line\u2028sep\u2029",
	"tab\there\n", "\x00\x1f", "del\x7f", "héllo", "bad\xffutf8", "\xc3", "emoji 😀",
}

// randomString draws a short string over an alphabet of the awkward cases.
func randomString(rng *rand.Rand) string {
	alphabet := []string{"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "\u2028", "\u2029", "\n", "\x01", "\x7f", "é", "\xff", "\xe2\x80", "😀"}
	var b []byte
	for n := rng.Intn(6); n > 0; n-- {
		b = append(b, alphabet[rng.Intn(len(alphabet))]...)
	}
	return string(b)
}

// TestServeRequestBytes: the request Client.Serve sends is, byte for byte,
// json.Marshal of the ServeRequest — the omitempty fields, negative and
// extreme integers, and every awkward string included.
func TestServeRequestBytes(t *testing.T) {
	check := func(r ServeRequest) {
		t.Helper()
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendServeRequest(nil, r); !bytes.Equal(got, want) {
			t.Fatalf("%+v:\n got %s\nwant %s", r, got, want)
		}
	}
	check(ServeRequest{})
	check(ServeRequest{Device: 3, Item: 1, Angle: 2, Seed: 42, Items: 8, Scale: 2, Runtime: "int8", Class: "batch"})
	check(ServeRequest{Device: -1, Seed: -1 << 63, Items: 1<<31 - 1})
	for _, s := range awkwardStrings {
		check(ServeRequest{Runtime: s, Class: s})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		check(ServeRequest{
			Device: int(rng.Int31()) - 1<<30, Item: rng.Intn(3), Angle: rng.Intn(5) - 1,
			Seed: rng.Int63() >> rng.Intn(64) * int64(rng.Intn(3)-1), Items: rng.Intn(3) * rng.Intn(5000),
			Scale: rng.Intn(3), Runtime: randomString(rng), Class: randomString(rng),
		})
	}
}
