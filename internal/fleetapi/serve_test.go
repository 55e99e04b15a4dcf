package fleetapi

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"
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

// TestServeReplyBytes: AppendServeResponse appends encoding/json's bytes —
// scores on both sides of the 1e-6 and 1e21 switches between its 'f' and 'e'
// forms, signed zero, the extremes, nothing at all for a non-finite score, and
// every awkward string — in a table and over random responses.
func TestServeReplyBytes(t *testing.T) {
	check := func(r ServeResponse) {
		t.Helper()
		var want bytes.Buffer
		encodable := json.NewEncoder(&want).Encode(r) == nil
		got, ok := AppendServeResponse(nil, &r)
		if ok != encodable || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v:\n got %v %q\nwant %v %q", r, ok, got, encodable, want.Bytes())
		}
	}
	base := ServeResponse{
		Pred: 3, TrueClass: 1, Score: 0.8125, Runtime: "int8", Class: "interactive", Bytes: 1234, BatchSize: 4,
		QueueNanos: 5678, StageNanos: ServeStageNanos{Sensor: 1, ISP: 2, Codec: 3, Inference: 4}, TotalNanos: 9999,
	}
	check(base)
	for _, score := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, -1e-7, 1.5e-10, 1e-100,
		1e20, math.Nextafter(1e21, 0), 1e21, -1e21, 1.2345e22, 1e100, 5e-324, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, -math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		r := base
		r.Score = score
		check(r)
	}
	for _, s := range awkwardStrings {
		r := base
		r.Runtime, r.Class = s, s
		check(r)
	}
	r := base
	r.Pred, r.TrueClass, r.Bytes, r.BatchSize = -1, math.MinInt32, math.MaxInt32, 0
	r.QueueNanos, r.TotalNanos, r.StageNanos.Inference = math.MinInt64, math.MaxInt64, -1
	check(r)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		r := ServeResponse{
			Pred: rng.Intn(5), TrueClass: rng.Intn(5), Runtime: randomString(rng), Class: randomString(rng),
			Bytes: rng.Intn(1 << 20), BatchSize: rng.Intn(65), QueueNanos: rng.Int63() >> rng.Intn(63),
			StageNanos: ServeStageNanos{Sensor: rng.Int63n(1e9), ISP: rng.Int63n(1e9), Codec: rng.Int63n(1e9), Inference: rng.Int63n(1e9)},
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
		check(r)
	}
}

// TestSLOClassValidate holds linger_ms to the class's own latency target,
// including values whose nanoseconds do not fit an int64: 18446744073710 ms
// is 2⁶⁴ ns plus 448 µs, and 9223372036855 ms just over 2⁶³ ns.
func TestSLOClassValidate(t *testing.T) {
	for _, tc := range []struct {
		linger int64
		ok     bool
	}{
		{0, true},
		{1, true},
		{250, true},
		{251, false},
		{-1, false},
		{18446744073710, false},
		{9223372036855, false},
	} {
		c := SLOClass{Name: "c", TargetNanos: 250 * time.Millisecond.Nanoseconds(), RatePerSec: 1, Burst: 1, QueueDepth: 1, MaxBatch: 8, LingerMillis: tc.linger}
		err := c.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("linger_ms=%d: Validate() = %v, want ok %v", tc.linger, err, tc.ok)
		}
		if err == nil && (c.Linger() < 0 || c.Linger().Nanoseconds() > c.TargetNanos) {
			t.Errorf("linger_ms=%d: accepted with Linger() = %v outside [0, target]", tc.linger, c.Linger())
		}
	}
}
