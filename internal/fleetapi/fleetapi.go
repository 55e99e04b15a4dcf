// Package fleetapi defines the wire contract of fleetd's versioned /v1 API:
// the resource specs and statuses, the JSON error envelope every endpoint
// speaks, the request-admission caps, and a Go client used by the shard
// coordinator, tests and examples. Keeping the contract in one package means
// a fleetd instance, its peers and its clients can never drift on what a run
// or a shard is.
package fleetapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/dataset"
	"repro/internal/fleet"
	"repro/internal/nn"
)

// Admission caps, shared by every instance: devices bounds a run's length,
// items bounds the synchronous dataset generation at run creation, workers
// bounds goroutines and their inference scratches (~0.5 MB a worker; a run
// compiles one backend per runtime whatever its worker count), and
// MaxCaptures bounds the composite devices×items×angles cell count (the
// per-field caps do not compose — a run at several caps at once would take
// hours and hold per-capture accumulator state).
const (
	MaxDevices  = 1_000_000
	MaxItems    = 100_000
	MaxWorkers  = 1024
	MaxScale    = dataset.SceneSize / 8
	MaxTopK     = int(dataset.NumClasses)
	MaxCaptures = 2_000_000
)

// RunSpec is the client-provided description of a fleet run — the body of
// POST /v1/runs. Zero-valued fields select the fleet defaults.
type RunSpec struct {
	Devices int    `json:"devices,omitempty"`
	Items   int    `json:"items,omitempty"`
	Angles  []int  `json:"angles,omitempty"`
	Seed    int64  `json:"seed,omitempty"`
	TopK    int    `json:"topk,omitempty"`
	Scale   int    `json:"scale,omitempty"`
	Runtime string `json:"runtime,omitempty"`
	// Format swaps one capture stage on every cell (fleet.Config.Format):
	// png, jpeg:Q, webp:Q or heif:Q re-encode each device's ISP output,
	// raw:dng, raw:imagemagick or raw:adobe develop its raw file, and
	// file:<codec> hands every device the same file of the displayed frame
	// to decode. Omitted means native.
	Format string `json:"format,omitempty"`
	// Model names the weights (fleet.Config.Model): stable:none or
	// stable:<scheme>[:kl][@α] fine-tunes the daemon's model once, when the
	// first run naming it starts. Omitted means base.
	Model   string `json:"model,omitempty"`
	Workers int    `json:"workers,omitempty"`
}

// FleetConfig converts the spec into a fleet run configuration.
func (s RunSpec) FleetConfig() fleet.Config {
	return fleet.Config{
		Devices: s.Devices,
		Items:   s.Items,
		Angles:  append([]int(nil), s.Angles...),
		Seed:    s.Seed,
		TopK:    s.TopK,
		Scale:   s.Scale,
		Runtime: s.Runtime,
		Format:  s.Format,
		Model:   s.Model,
		Workers: s.Workers,
	}
}

// Validate checks field ranges and the admission caps. The captures cap
// applies to the whole run: a coordinator (or single instance) holds the
// full merged accumulator state, so the bound is on what one process must
// eventually materialize. Shards check their own range instead — see
// ShardSpec.Validate.
func (s RunSpec) Validate() error {
	if err := s.validateFields(); err != nil {
		return err
	}
	return capturesCap("devices×items×angles", s.FleetConfig().Captures())
}

// capturesCap bounds a capture budget; what spells the product it came from.
func capturesCap(what string, captures int) error {
	if captures > MaxCaptures {
		return fmt.Errorf("%s = %d captures exceeds the cap of %d", what, captures, MaxCaptures)
	}
	return nil
}

// validateShard checks the run fields of a shard spec of either kind and
// requires a non-empty in-bounds range: 0 ≤ lo < hi ≤ devices (after
// defaulting).
func (s RunSpec) validateShard(lo, hi int) error {
	if err := s.validateFields(); err != nil {
		return err
	}
	devices := s.FleetConfig().WithDefaults().Devices
	if lo < 0 || lo >= hi || hi > devices {
		return fmt.Errorf("bad device range %d..%d (want 0 <= lo < hi <= %d)", lo, hi, devices)
	}
	return nil
}

// validateFields checks everything but the captures cap.
func (s RunSpec) validateFields() error {
	for _, lim := range []struct {
		name string
		val  int
		max  int
	}{
		{"devices", s.Devices, MaxDevices},
		{"items", s.Items, MaxItems},
		{"workers", s.Workers, MaxWorkers},
		{"scale", s.Scale, MaxScale},
		{"topk", s.TopK, MaxTopK},
	} {
		if lim.val < 0 {
			return fmt.Errorf("%s=%d is negative", lim.name, lim.val)
		}
		if lim.val > lim.max {
			return fmt.Errorf("%s=%d exceeds the cap of %d", lim.name, lim.val, lim.max)
		}
	}
	if s.Runtime != "" && !nn.ValidRuntime(s.Runtime) {
		return fmt.Errorf("bad runtime %q (want one of %v)", s.Runtime, nn.Runtimes())
	}
	if _, err := fleet.CanonicalFormat(s.Format); err != nil {
		return err
	}
	if _, err := fleet.CanonicalModel(s.Model); err != nil {
		return err
	}
	seen := map[int]bool{}
	for _, a := range s.Angles {
		if a < 0 || a >= dataset.NumAngles {
			return fmt.Errorf("bad angle %d (want 0..%d)", a, dataset.NumAngles-1)
		}
		if seen[a] {
			return fmt.Errorf("duplicate angle %d", a)
		}
		seen[a] = true
	}
	return nil
}

// ShardSpec asks an instance to execute one device-range shard [DeviceLo,
// DeviceHi) of a run — the body of POST /v1/shards. The embedded RunSpec
// must be the full run's spec, identical across every shard of one run;
// only the range differs.
type ShardSpec struct {
	RunSpec
	DeviceLo int `json:"device_lo"`
	DeviceHi int `json:"device_hi"`
	// ModelSHA is the coordinator's model_sha (see Health.ModelSHA): an
	// instance whose own differs refuses the shard, whose cells would merge
	// into a wrong result that ends done. The coordinator always sends it;
	// empty skips the check.
	ModelSHA string `json:"model_sha,omitempty"`
	// CellDigest is the coordinator's cell_digest (see Health.CellDigest),
	// checked as ModelSHA is.
	CellDigest string `json:"cell_digest,omitempty"`
	// Trace and Parent carry the coordinator run's trace context: the
	// executing instance records its shard.execute span under this trace,
	// parented onto the coordinator's dispatch span, so a sharded run yields
	// one coherent cross-process trace. Both optional; empty disables shard
	// tracing.
	Trace  string `json:"trace,omitempty"`
	Parent string `json:"parent,omitempty"`
}

// FleetConfig converts the shard spec into a range-scoped fleet config.
func (s ShardSpec) FleetConfig() fleet.Config {
	cfg := s.RunSpec.FleetConfig()
	cfg.DeviceLo, cfg.DeviceHi = s.DeviceLo, s.DeviceHi
	return cfg
}

// Validate checks the run spec fields and the device range. The captures
// cap is applied to the shard's own range, not the full run's — an instance
// only materializes its shard. (The shipped coordinator still validates the
// full RunSpec at run creation, since it merges every shard's state into
// one accumulator; the per-shard cap serves external orchestrators that
// fan out over /v1/shards and merge elsewhere.)
func (s ShardSpec) Validate() error {
	if err := s.validateShard(s.DeviceLo, s.DeviceHi); err != nil {
		return err
	}
	return capturesCap("shard devices×items×angles", s.FleetConfig().Captures())
}

// Run states. Experiment arms additionally start in StatePending, since
// arms execute sequentially and the later ones wait their turn.
const (
	StatePending   = "pending"
	StateRunning   = "running"
	StateDone      = "done"
	StateCancelled = "cancelled"
	StateFailed    = "failed"
)

// RunStatus is the /v1 representation of a run resource.
type RunStatus struct {
	ID    int     `json:"id"`
	State string  `json:"state"`
	Spec  RunSpec `json:"spec"`
	// Devices is the run's total device count (after defaulting);
	// DevicesDone and Captures are progress so far.
	Devices     int `json:"devices"`
	DevicesDone int `json:"devices_done"`
	Captures    int `json:"captures"`
	// Shards is the peer fan-out of a coordinator-executed run (0 for
	// local runs).
	Shards int `json:"shards,omitempty"`
	// Trace is the run's deterministic trace ID; GET /v1/runs/{id}/trace
	// returns its spans.
	Trace string `json:"trace,omitempty"`
	// Error carries the failure message of a failed run.
	Error string `json:"error,omitempty"`
}

// Health is the body of GET /healthz. Its keys are in lexical order, as a
// map of them would marshal.
type Health struct {
	// CellDigest fingerprints the cells the instance computes from its
	// weights: the sha256 of a fixed canary of captures and inferences. A
	// coordinator refuses a peer whose CellDigest is not its own.
	CellDigest  string `json:"cell_digest"`
	Experiments int    `json:"experiments"`
	Fleets      int    `json:"fleets"`
	GoVersion   string `json:"go_version"`
	ModelParams int    `json:"model_params"`
	// ModelSHA fingerprints the weights the instance computes with (see
	// fleet.ModelSHA); a coordinator refuses a peer whose ModelSHA is not its
	// own.
	ModelSHA    string   `json:"model_sha"`
	Peers       int      `json:"peers"`
	Runs        int      `json:"runs"`
	Runtimes    []string `json:"runtimes"`
	Status      string   `json:"status"`
	UptimeSec   int64    `json:"uptime_sec"`
	VCSRevision string   `json:"vcs_revision,omitempty"`
}

// Error is the JSON error envelope payload every fleetd endpoint returns:
// {"error": {"code": ..., "message": ...}}. It implements error, so the
// client surfaces server-side failures directly.
type Error struct {
	// Status is the HTTP status code (not serialized; the transport
	// carries it).
	Status  int    `json:"-"`
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("fleetd: %s (%s)", e.Message, e.Code)
}

// Error codes. The two 429 codes are distinct so a load generator's trace
// can attribute a shed to the token bucket vs a full queue from the envelope
// alone.
const (
	CodeBadRequest       = "bad_request"
	CodeNotFound         = "not_found"
	CodeConflict         = "conflict"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeRunFailed        = "run_failed"
	CodeInternal         = "internal"
	CodeUnavailable      = "unavailable"
	CodeRateLimited      = "rate_limited"
	CodeQueueFull        = "queue_full"
)

// envelope is the wire shape of an error response.
type envelope struct {
	Error *Error `json:"error"`
}

// statusForCode maps error codes to their HTTP status.
func statusForCode(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeNotFound:
		return http.StatusNotFound
	case CodeConflict:
		return http.StatusConflict
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	case CodeRateLimited, CodeQueueFull:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// Errorf builds an *Error with the status implied by its code.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Status: statusForCode(code), Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteJSON writes v as a JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// MarshalEnvelope renders the error in the wire envelope shape — the one
// source of truth for {"error": {...}} bytes outside a plain HTTP reply
// (e.g. a failure line inside an NDJSON stream).
func (e *Error) MarshalEnvelope() []byte {
	b, err := json.Marshal(envelope{Error: e})
	if err != nil { // struct of plain strings; cannot fail
		panic(err)
	}
	return b
}

// WriteError writes the error envelope. Any non-*Error is wrapped as an
// internal error, so handlers can pass failures through unexamined.
func WriteError(w http.ResponseWriter, err error) {
	var e *Error
	if !errors.As(err, &e) {
		e = &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Message: err.Error()}
	}
	WriteJSON(w, e.Status, envelope{Error: e})
}

// DecodeError turns a non-2xx response into an *Error: the parsed envelope
// when the body is one, or a synthesized error carrying the raw body
// otherwise (a proxy or panic page, say).
func DecodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env envelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil && env.Error.Code != "" {
		env.Error.Status = resp.StatusCode
		return env.Error
	}
	return &Error{
		Status:  resp.StatusCode,
		Code:    CodeInternal,
		Message: fmt.Sprintf("unexpected response %d: %s", resp.StatusCode, strings.TrimSpace(string(body))),
	}
}
