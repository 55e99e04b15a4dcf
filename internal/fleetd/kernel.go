package fleetd

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fleetapi"
)

// The resource kernel: what runs, experiments and continuous fleets share.
// A kind is an ID-spaced history ring behind the collection, resource and
// artifact handlers; a core is the lifecycle state every resource embeds —
// cancel flag, live execution, and the recorded outcome whose presence is the
// one terminal predicate that status, artifacts, DELETE and admission all
// read. The kinds themselves (run.go, experiment.go, fleets.go) keep only
// what differs: building an execution from a spec, recording its outcome,
// and rendering a status.

// maxBodyBytes bounds every POST body. The largest legitimate spec is a
// fleet with MaxWindows×few injected events, far below it.
const maxBodyBytes = 1 << 20

// validator is what every request body type implements.
type validator interface{ Validate() error }

// decodeStrict is the one request-body decoder: size-bounded, and strict —
// a misspelled field, or no body at all, must not silently launch an
// all-defaults job (that is an explicit `{}`). what names the body in the
// decode error.
func decodeStrict[T validator](w http.ResponseWriter, req *http.Request, what string) (T, *fleetapi.Error) {
	return decodeFrom[T](http.MaxBytesReader(w, req.Body, maxBodyBytes), what)
}

// decodeFrom is decodeStrict's decoder on a body reader that is already
// bounded.
func decodeFrom[T validator](r io.Reader, what string) (T, *fleetapi.Error) {
	var v T
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return v, fleetapi.Errorf(fleetapi.CodeBadRequest, "bad %s: %v", what, err)
	}
	return v, validate(v)
}

// validate is the refusal of a decoded body that fails its Validate; generic,
// so that a struct body is not boxed into an interface to be asked.
func validate[T validator](v T) *fleetapi.Error {
	if err := v.Validate(); err != nil {
		return fleetapi.Errorf(fleetapi.CodeBadRequest, "%v", err)
	}
	return nil
}

// allow reports whether the request's method is one of methods, writing the
// 405 envelope when it is not.
func allow(w http.ResponseWriter, req *http.Request, methods ...string) bool {
	for _, m := range methods {
		if req.Method == m {
			return true
		}
	}
	fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeMethodNotAllowed, "use %s", strings.Join(methods, " or ")))
	return false
}

// writeRaw serves recorded JSON bytes verbatim, or the error explaining why
// there are none.
func writeRaw(w http.ResponseWriter, b []byte, apiErr *fleetapi.Error) {
	if apiErr != nil {
		fleetapi.WriteError(w, apiErr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

// sweepState is the terminal state of one finished device sweep (a run, an
// experiment arm, a fleet, a shard). It judges by completeness, not by the
// cancel flag: a cancel landing after the last device finished must not
// discard — or relabel — a fully computed result.
func sweepState(err error, done, total int) string {
	switch {
	case err != nil:
		return fleetapi.StateFailed
	case done < total:
		return fleetapi.StateCancelled
	default:
		return fleetapi.StateDone
	}
}

// liveExec is the part of an execution the core itself drives.
type liveExec interface {
	// cancel asks the execution to stop early; its execute still returns.
	cancel()
	// progress reports devices done, total devices, and captures so far. It
	// takes no resource-level locks (atomics for local runners, the fan-out's
	// own mutex for coordinated ones).
	progress() (done, total, captures int)
}

// core is the lifecycle state of one resource. States are monotonic:
// "running" until finish records the outcome, then exactly one immutable
// terminal state. A cancel therefore shows "running" while the job drains
// (it still is). Finished resources drop their execution (the run's compiled
// backends and worker scratches, scene caches), so a history ring full of
// them costs only their recorded bytes.
type core struct {
	kind string // "run", "experiment", "fleet": names the resource in messages
	id   int
	// done closes when the outcome is recorded; the run stream waits on it.
	done chan struct{}

	mu        sync.Mutex
	cancelled bool
	live      liveExec // the execution cancel reaches; nil when none runs
	state     string   // terminal state; "" until finish
	failure   string   // non-empty once the resource failed
	// docs are the recorded deterministic artifacts by leaf name, served
	// verbatim by every later read.
	docs map[string][]byte
	// devicesDone/captures preserve progress at finish time; the execution
	// is dropped afterwards and progress must not regress to zero.
	devicesDone, captures int
}

func newCore(kind string, id int) core {
	return core{kind: kind, id: id, done: make(chan struct{})}
}

func (c *core) ident() int { return c.id }

// cancel asks the live execution to stop; idempotent, harmless after finish.
func (c *core) cancel() {
	c.mu.Lock()
	c.cancelled = true
	live := c.live
	c.mu.Unlock()
	if live != nil {
		live.cancel()
	}
}

// isCancelled reports whether cancel has been requested. Cancellation is
// monotonic, and any context-cancellation error out of an execution implies
// the flag was already set before its contexts were stopped.
func (c *core) isCancelled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelled
}

// cancelOnly reports whether err, out of the resource's execution, is just
// its own cancel propagating (peers observing hung-up shard requests) rather
// than a root-cause failure: the resource then ends cancelled, the outcome a
// cancelled local execution gets. A genuine peer failure (the fan-out
// prefers those over cancellation artifacts) still fails the resource even
// when a cancel raced it — the root cause must surface.
func (c *core) cancelOnly(err error) bool {
	return err != nil && c.isCancelled() && errors.Is(err, context.Canceled)
}

// terminal reports whether the outcome is recorded. Everything that asks
// "is it over?" asks this, so a client that sees a terminal state can
// fetch the artifacts, evict the resource, or create the next one at once.
func (c *core) terminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state != ""
}

// holdsSlot reports whether the resource still occupies the shared admission
// slot: it does while its live execution has devices left. Judging by
// progress rather than by the outcome avoids a spurious conflict between the
// last device finishing and the report being rendered (which for
// capture-cap-sized jobs takes a while). A kind that runs several executions
// in turn overrides it.
func (c *core) holdsSlot() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.live == nil {
		return false
	}
	done, total, _ := c.live.progress()
	return done < total
}

// finish records the outcome — the single transition to terminal.
func (c *core) finish(state, failure string, devicesDone, captures int, docs map[string][]byte) {
	c.mu.Lock()
	c.state, c.failure, c.docs = state, failure, docs
	c.devicesDone, c.captures = devicesDone, captures
	c.live = nil
	c.mu.Unlock()
	close(c.done)
}

// stateLocked and progressLocked feed status rendering; callers hold c.mu,
// so no reader can pair a stale state with fresh progress.
func (c *core) stateLocked() string {
	if c.state == "" {
		return fleetapi.StateRunning
	}
	return c.state
}

func (c *core) progressLocked() (devicesDone, captures int) {
	if c.live != nil {
		devicesDone, _, captures = c.live.progress()
		return devicesDone, captures
	}
	return c.devicesDone, c.captures
}

// artifact returns one recorded document, or the error explaining why there
// is none. Only complete resources have deterministic artifacts; a cancelled
// one is refused like a failed one, so nobody diffs a partial report against
// a complete one.
func (c *core) artifact(leaf string) ([]byte, *fleetapi.Error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.state == "":
		return nil, fleetapi.Errorf(fleetapi.CodeConflict, "%s %d is still running", c.kind, c.id)
	case c.failure != "":
		return nil, fleetapi.Errorf(fleetapi.CodeRunFailed, "%s", c.failure)
	case c.docs[leaf] == nil:
		return nil, fleetapi.Errorf(fleetapi.CodeRunFailed, "%s %d cancelled before completion", c.kind, c.id)
	default:
		return c.docs[leaf], nil
	}
}

// resource is what the kernel needs of a kind's instances; core provides all
// of it but status.
type resource interface {
	ident() int
	cancel()
	terminal() bool
	holdsSlot() bool
	artifact(leaf string) ([]byte, *fleetapi.Error)
	// status renders the /v1 representation.
	status() any
}

// kind is one resource collection: its history ring with its own id space,
// and the HTTP handlers over it. ring and nextID are guarded by Server.mu.
type kind[Spec validator, R resource] struct {
	s    *Server
	name string // "run": in messages as is, the list reply's key with an s
	// create launches a resource from a validated spec; it calls admit.
	create func(Spec) (R, *fleetapi.Error)

	ring   []R // oldest first
	nextID int
}

// admit takes the shared admission slot and registers what build returns.
// build runs under Server.mu with the resource's id; it may still refuse.
func (k *kind[Spec, R]) admit(build func(id int) (R, *fleetapi.Error)) (R, *fleetapi.Error) {
	s := k.s
	s.mu.Lock()
	defer s.mu.Unlock()
	var none R
	if s.closing {
		return none, fleetapi.Errorf(fleetapi.CodeUnavailable, "server is shutting down")
	}
	if s.busyLocked() {
		return none, fleetapi.Errorf(fleetapi.CodeConflict, "a fleet run or experiment is already in flight")
	}
	r, apiErr := build(k.nextID)
	if apiErr != nil {
		return none, apiErr
	}
	k.nextID++
	k.ring = append(k.ring, r)
	if len(k.ring) > s.history {
		k.ring = k.ring[len(k.ring)-s.history:]
	}
	return r, nil
}

// busyLocked reports whether the kind's newest resource holds the admission
// slot; admission is serial, so no older one can.
func (k *kind[Spec, R]) busyLocked() bool {
	n := len(k.ring)
	return n > 0 && k.ring[n-1].holdsSlot()
}

func (k *kind[Spec, R]) snapshot() []R {
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	return append([]R(nil), k.ring...)
}

// cancelAll is the kind's share of CancelRuns.
func (k *kind[Spec, R]) cancelAll() {
	for _, r := range k.snapshot() {
		r.cancel()
	}
}

// fromPath resolves the {id} path value, writing the error reply itself when
// it can't.
func (k *kind[Spec, R]) fromPath(w http.ResponseWriter, req *http.Request) (r R, ok bool) {
	idStr := req.PathValue("id")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeBadRequest, "bad %s id %q", k.name, idStr))
		return r, false
	}
	for _, r := range k.snapshot() {
		if r.ident() == id {
			return r, true
		}
	}
	fleetapi.WriteError(w, fleetapi.Errorf(fleetapi.CodeNotFound, "%s %d not in history", k.name, id))
	return r, false
}

// handleCollection serves POST (create) and GET (list, oldest first).
func (k *kind[Spec, R]) handleCollection(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet, http.MethodPost) {
		return
	}
	if req.Method == http.MethodGet {
		out := []any{}
		for _, r := range k.snapshot() {
			out = append(out, r.status())
		}
		fleetapi.WriteJSON(w, http.StatusOK, map[string]any{k.name + "s": out})
		return
	}
	spec, apiErr := decodeStrict[Spec](w, req, k.name+" spec")
	if apiErr != nil {
		fleetapi.WriteError(w, apiErr)
		return
	}
	r, apiErr := k.create(spec)
	if apiErr != nil {
		fleetapi.WriteError(w, apiErr)
		return
	}
	fleetapi.WriteJSON(w, http.StatusCreated, r.status())
}

// handleResource serves GET (status) and DELETE: cancel while running,
// evict once terminal.
func (k *kind[Spec, R]) handleResource(w http.ResponseWriter, req *http.Request) {
	if !allow(w, req, http.MethodGet, http.MethodDelete) {
		return
	}
	r, ok := k.fromPath(w, req)
	if !ok {
		return
	}
	switch {
	case req.Method == http.MethodGet:
		fleetapi.WriteJSON(w, http.StatusOK, r.status())
	case !r.terminal():
		r.cancel()
		k.s.log.Infof("%s %d cancelled", k.name, r.ident())
		fleetapi.WriteJSON(w, http.StatusAccepted, r.status())
	default:
		k.s.mu.Lock()
		for i, x := range k.ring {
			if x.ident() == r.ident() {
				k.ring = append(k.ring[:i], k.ring[i+1:]...)
				break
			}
		}
		k.s.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}
}

// artifact returns the GET handler of one artifact leaf.
func (k *kind[Spec, R]) artifact(leaf string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if !allow(w, req, http.MethodGet) {
			return
		}
		if r, ok := k.fromPath(w, req); ok {
			b, apiErr := r.artifact(leaf)
			writeRaw(w, b, apiErr)
		}
	}
}
