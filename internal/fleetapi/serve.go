package fleetapi

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
)

// MaxServeItems caps the dataset size a serve request may reference. Serve
// requests materialize their (seed, items) evaluation set lazily on the
// instance; the cap bounds that synchronous generation the way MaxItems
// bounds it for runs, but much tighter — a serving stream regenerates the
// set on cache miss, inside a request's latency budget.
const MaxServeItems = 4096

// ServeRequest is the body of POST /v1/serve: one capture→classify through
// the fleet hot path, addressed by the same deterministic cell coordinates
// a batch run uses. (seed, device) names the synthesized phone, (seed,
// items, item) the photographed object, angle the camera position — so a
// served prediction is reproducible and comparable cell-for-cell with any
// run of the same seed.
type ServeRequest struct {
	Device int   `json:"device"`
	Item   int   `json:"item"`
	Angle  int   `json:"angle"`
	Seed   int64 `json:"seed,omitempty"`
	// Items is the evaluation-set size Item indexes into (default 8).
	Items int `json:"items,omitempty"`
	// Scale divides the capture resolution (default 2), like RunSpec.
	Scale int `json:"scale,omitempty"`
	// Runtime forces the inference runtime; empty uses the device's own.
	Runtime string `json:"runtime,omitempty"`
	// Class is the SLO class admission judges the request under; empty
	// selects the instance's first configured class.
	Class string `json:"class,omitempty"`
}

// Validate checks field ranges. The class name is resolved server-side
// against the instance's configured classes, not here.
func (r ServeRequest) Validate() error {
	if r.Device < 0 || r.Device >= MaxDevices {
		return fmt.Errorf("device=%d out of range [0, %d)", r.Device, MaxDevices)
	}
	if r.Items < 0 || r.Items > MaxServeItems {
		return fmt.Errorf("items=%d exceeds the serve cap of %d", r.Items, MaxServeItems)
	}
	items := r.Items
	if items == 0 {
		items = 8
	}
	if r.Item < 0 || r.Item >= items {
		return fmt.Errorf("item=%d out of range [0, %d)", r.Item, items)
	}
	if r.Angle < 0 || r.Angle >= dataset.NumAngles {
		return fmt.Errorf("bad angle %d (want 0..%d)", r.Angle, dataset.NumAngles-1)
	}
	if r.Scale < 0 || r.Scale > MaxScale {
		return fmt.Errorf("scale=%d exceeds the cap of %d", r.Scale, MaxScale)
	}
	if r.Runtime != "" && !nn.ValidRuntime(r.Runtime) {
		return fmt.Errorf("bad runtime %q (want one of %v)", r.Runtime, nn.Runtimes())
	}
	return nil
}

// appendServeRequest appends r as json.Marshal encodes it: fields in
// declaration order, the omitempty ones left out when zero.
func appendServeRequest(b []byte, r ServeRequest) []byte {
	b = append(b, `{"device":`...)
	b = strconv.AppendInt(b, int64(r.Device), 10)
	b = append(b, `,"item":`...)
	b = strconv.AppendInt(b, int64(r.Item), 10)
	b = append(b, `,"angle":`...)
	b = strconv.AppendInt(b, int64(r.Angle), 10)
	if r.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, r.Seed, 10)
	}
	if r.Items != 0 {
		b = append(b, `,"items":`...)
		b = strconv.AppendInt(b, int64(r.Items), 10)
	}
	if r.Scale != 0 {
		b = append(b, `,"scale":`...)
		b = strconv.AppendInt(b, int64(r.Scale), 10)
	}
	if r.Runtime != "" {
		b = append(b, `,"runtime":`...)
		b = appendString(b, r.Runtime)
	}
	if r.Class != "" {
		b = append(b, `,"class":`...)
		b = appendString(b, r.Class)
	}
	return append(b, '}')
}

// AppendServeResponse appends r as json.NewEncoder(w).Encode(r) writes it:
// fields in declaration order, strings HTML-escaped, the score in
// encoding/json's float format, a trailing newline. A non-finite score is
// refused, as the Encoder refuses it, before a byte is written. fleetd
// writes every 200 reply of POST /v1/serve with it.
func AppendServeResponse(b []byte, r *ServeResponse) ([]byte, bool) {
	if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
		return b, false
	}
	b = append(b, `{"pred":`...)
	b = strconv.AppendInt(b, int64(r.Pred), 10)
	b = append(b, `,"true_class":`...)
	b = strconv.AppendInt(b, int64(r.TrueClass), 10)
	b = append(b, `,"score":`...)
	b = appendFloat(b, r.Score)
	b = append(b, `,"runtime":`...)
	b = appendString(b, r.Runtime)
	b = append(b, `,"class":`...)
	b = appendString(b, r.Class)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, int64(r.Bytes), 10)
	b = append(b, `,"batch":`...)
	b = strconv.AppendInt(b, int64(r.BatchSize), 10)
	b = append(b, `,"queue_ns":`...)
	b = strconv.AppendInt(b, r.QueueNanos, 10)
	b = append(b, `,"stage_ns":{"sensor":`...)
	b = strconv.AppendInt(b, r.StageNanos.Sensor, 10)
	b = append(b, `,"isp":`...)
	b = strconv.AppendInt(b, r.StageNanos.ISP, 10)
	b = append(b, `,"codec":`...)
	b = strconv.AppendInt(b, r.StageNanos.Codec, 10)
	b = append(b, `,"inference":`...)
	b = strconv.AppendInt(b, r.StageNanos.Inference, 10)
	b = append(b, `},"total_ns":`...)
	b = strconv.AppendInt(b, r.TotalNanos, 10)
	return append(b, "}\n"...), true
}

// appendFloat formats a finite float64 as encoding/json does: 'f' form, but
// 'e' form below 1e-6 and from 1e21 on, with a one-digit negative exponent
// written e-7, not e-07.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s quoted as encoding/json quotes it, HTML escapes
// included: printable ASCII that needs no escape as it is, any other string
// through json.Marshal itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ServeResponse is the reply of POST /v1/serve: the prediction plus where
// the request's latency went.
type ServeResponse struct {
	Pred      int     `json:"pred"`
	TrueClass int     `json:"true_class"`
	Score     float64 `json:"score"`
	Runtime   string  `json:"runtime"`
	Class     string  `json:"class"`
	Bytes     int     `json:"bytes"` // compressed capture size
	// BatchSize is how many requests the one computation of this request's
	// cell answered, this one included (1 = computed for it alone). Requests
	// for the same cell of the same class share a computation whenever one
	// arrives while the cell is pending or being computed, whatever batches
	// they were formed into; the inference time is split evenly among them.
	BatchSize int `json:"batch"`
	// QueueNanos is how long the request waited after admission: until its
	// cell's computation started, or until it joined one already running.
	// StageNanos is the capture/inference breakdown; TotalNanos the whole
	// admitted-to-replied time.
	QueueNanos int64           `json:"queue_ns"`
	StageNanos ServeStageNanos `json:"stage_ns"`
	TotalNanos int64           `json:"total_ns"`
}

// ServeStageNanos is the per-stage wall-time breakdown of one served
// request.
type ServeStageNanos struct {
	Sensor    int64 `json:"sensor"`
	ISP       int64 `json:"isp"`
	Codec     int64 `json:"codec"`
	Inference int64 `json:"inference"`
}

// SLOClass defines one admission class of the serving path: its latency
// target and the rate/queue bounds admission enforces for it. Instances and
// load generators share this type so a workload's class definitions and the
// server's can be compared or copied verbatim.
type SLOClass struct {
	Name string `json:"name"`
	// TargetNanos is the class's latency SLO (queue wait + service). Pick a
	// value on an obs.DurationBuckets bound: attainment is computed from
	// bucket counts and is exact only there.
	TargetNanos int64 `json:"target_ns"`
	// RatePerSec and Burst parameterize the class's token bucket: sustained
	// admission rate and the burst above it admitted from a full bucket.
	RatePerSec float64 `json:"rate_per_sec"`
	Burst      int     `json:"burst"`
	// QueueDepth bounds how many admitted requests may wait for a serve
	// worker; a full queue sheds.
	QueueDepth int `json:"queue_depth"`
	// MaxBatch caps how many queued requests one serve worker drains into a
	// batch and registers in the in-flight table at once. 0 and 1 both mean
	// one job per wake. It does not bound coalescing: requests for a cell
	// that is pending or being computed share that computation at any
	// bound.
	MaxBatch int `json:"max_batch,omitempty"`
	// LingerMillis bounds how long a worker holding a partial batch waits
	// for the queue to top it up to MaxBatch. 0 derives a default from the
	// class's latency target (target/20, so lingering can never eat more
	// than 5% of the budget); it only applies when MaxBatch > 1.
	LingerMillis int64 `json:"linger_ms,omitempty"`
}

// MaxServeBatch caps max_batch: a worker registering a batch is not
// computing, so past this a batch only builds tail latency.
const MaxServeBatch = 64

// EffectiveBatch returns the batch cap with the unbatched default applied.
func (c SLOClass) EffectiveBatch() int {
	if c.MaxBatch <= 1 {
		return 1
	}
	return c.MaxBatch
}

// Linger returns how long a worker may hold a partial batch open: zero for
// unbatched classes, the explicit linger_ms when set, else target/20.
func (c SLOClass) Linger() time.Duration {
	if c.EffectiveBatch() == 1 {
		return 0
	}
	if c.LingerMillis > 0 {
		return time.Duration(c.LingerMillis) * time.Millisecond
	}
	return time.Duration(c.TargetNanos / 20)
}

// Validate checks the class is usable for admission.
func (c SLOClass) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("SLO class with empty name")
	}
	if c.TargetNanos <= 0 {
		return fmt.Errorf("SLO class %q: target_ns=%d must be positive", c.Name, c.TargetNanos)
	}
	if c.RatePerSec <= 0 {
		return fmt.Errorf("SLO class %q: rate_per_sec=%g must be positive", c.Name, c.RatePerSec)
	}
	if c.Burst < 1 {
		return fmt.Errorf("SLO class %q: burst=%d must be at least 1", c.Name, c.Burst)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("SLO class %q: queue_depth=%d must be at least 1", c.Name, c.QueueDepth)
	}
	if c.MaxBatch < 0 || c.MaxBatch > MaxServeBatch {
		return fmt.Errorf("SLO class %q: max_batch=%d out of range [0, %d]", c.Name, c.MaxBatch, MaxServeBatch)
	}
	if c.LingerMillis < 0 {
		return fmt.Errorf("SLO class %q: linger_ms=%d must be non-negative", c.Name, c.LingerMillis)
	}
	// In milliseconds: linger_ms·10⁶ would wrap around for a large linger_ms.
	if c.LingerMillis > c.TargetNanos/int64(time.Millisecond) {
		return fmt.Errorf("SLO class %q: linger_ms=%d exceeds the class's own latency target", c.Name, c.LingerMillis)
	}
	return nil
}

// DefaultSLOClasses returns the two stock serving classes: interactive
// (tight p99, modest burst) and batch (relaxed p99, deep queue). Targets sit
// on obs.DurationBuckets bounds so attainment is exact.
func DefaultSLOClasses() []SLOClass {
	return []SLOClass{
		{Name: "interactive", TargetNanos: 250 * time.Millisecond.Nanoseconds(), RatePerSec: 200, Burst: 50, QueueDepth: 64},
		{Name: "batch", TargetNanos: time.Second.Nanoseconds(), RatePerSec: 50, Burst: 100, QueueDepth: 256},
	}
}

// SLOReport is the serving path's outcome summary: per-class attainment,
// shed counts and latency/queue-wait quantiles. fleetd serves one from its
// live histograms (GET /v1/slo); loadgen computes one deterministically from
// a recorded trace — same shape, so the two are directly comparable.
type SLOReport struct {
	Classes []SLOClassReport `json:"classes"`
	// Fairness is the Jain fairness index over the per-class attainments
	// (classes that served nothing are excluded): 1 when every class meets
	// its SLO equally, approaching 1/n when one of n classes absorbs all
	// the attainment. It is the cross-class summary of who the load hurt.
	Fairness float64 `json:"fairness"`
}

// SLOClassReport is one class's row of an SLOReport.
type SLOClassReport struct {
	Class       string `json:"class"`
	TargetNanos int64  `json:"target_ns"`
	// Requests = Served + ShedRate + ShedQueue + Errors.
	Requests  int64 `json:"requests"`
	Served    int64 `json:"served"`
	ShedRate  int64 `json:"shed_rate"`  // rate-limited at the token bucket
	ShedQueue int64 `json:"shed_queue"` // bounced off a full queue
	Errors    int64 `json:"errors"`
	// Attainment is the fraction of served requests within the target
	// (0 when nothing was served).
	Attainment float64 `json:"attainment"`
	// Latency and queue-wait quantiles in nanoseconds (bucket-interpolated).
	LatencyNanos   QuantileSet `json:"latency_ns"`
	QueueWaitNanos QuantileSet `json:"queue_wait_ns"`
	// MeanBatch is the observed mean batch size, in two senses. fleetd
	// reports the mean number of requests per formed batch; loadgen reports
	// the mean over served events of each reply's batch, the requests its
	// cell's one computation answered. 0 when nothing was served.
	MeanBatch float64 `json:"mean_batch"`
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over the values:
// 1 when all are equal, 1/n when one value holds everything. All-zero input
// is perfectly equal and reports 1; an empty input reports 0 (no data is
// not fairness). Both the live /v1/slo report and loadgen's trace report
// apply it to per-class SLO attainment. Each square is rounded before it is
// summed, so no target fuses them.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += float64(x * x)
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// QuantileSet is the p50/p95/p99 triple of one latency distribution.
type QuantileSet struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// JSON marshals the report with stable formatting — the deterministic
// artifact form (identical inputs yield identical bytes).
func (r SLOReport) JSON() []byte {
	b, err := json.Marshal(r)
	if err != nil { // struct of plain values; cannot fail
		panic(err)
	}
	return b
}
