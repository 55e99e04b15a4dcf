package fleet

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/fmath"
	"repro/internal/imaging"
	"repro/internal/lifecycle"
	"repro/internal/nn"
)

// imagePixelBytes flattens an image's pixels for byte comparison.
func imagePixelBytes(img *imaging.Image) []byte {
	out := make([]byte, 4*len(img.Pix))
	for i, p := range img.Pix {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(p))
	}
	return out
}

// contTestConfig is a tiny continuous run with every lifecycle axis active:
// an injected OS upgrade, a runtime upgrade, a thermal event, plus join/
// leave churn.
func contTestConfig(workers int) ContinuousConfig {
	return ContinuousConfig{
		Fleet: Config{
			Devices: 6,
			Items:   2,
			Angles:  []int{0, 2},
			Seed:    41,
			Workers: workers,
		},
		Windows: 4,
		Churn:   lifecycle.Churn{JoinRate: 0.4, LeaveRate: 0.3},
		Events: []lifecycle.Event{
			{Window: 2, Device: 0, Kind: lifecycle.KindOSUpgrade},
			{Window: 2, Device: 1, Kind: lifecycle.KindRuntimeUpgrade, Runtime: nn.RuntimeInt8},
			{Window: 3, Device: 2, Kind: lifecycle.KindThermalDrift, Severity: 0.8},
		},
	}
}

func runContinuous(t testing.TB, cfg ContinuousConfig) *ContinuousRunner {
	t.Helper()
	r, err := NewContinuousRunner(cfg, testFactory())
	if err != nil {
		t.Fatalf("NewContinuousRunner: %v", err)
	}
	r.Run()
	return r
}

// TestContinuousWorkerCountByteIdentical is the core determinism property:
// the report JSON is byte-identical for any worker count.
func TestContinuousWorkerCountByteIdentical(t *testing.T) {
	want := runContinuous(t, contTestConfig(1)).Report().JSON()
	for _, workers := range []int{2, 5} {
		got := runContinuous(t, contTestConfig(workers)).Report().JSON()
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d report diverged from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestContinuousLifecycleShapesReport checks the events actually act on the
// run: a leave and a late join move window populations, and the runtime
// upgrade shows in the device states.
func TestContinuousLifecycleShapesReport(t *testing.T) {
	cfg := ContinuousConfig{
		Fleet:   Config{Devices: 4, Items: 1, Angles: []int{0}, Seed: 7, Workers: 2},
		Windows: 3,
		Events: []lifecycle.Event{
			{Window: 1, Device: 0, Kind: lifecycle.KindLeave},
			{Window: 1, Device: 1, Kind: lifecycle.KindRuntimeUpgrade, Runtime: nn.RuntimePruned},
			{Window: 1, Device: 2, Kind: lifecycle.KindJoin},
			{Window: 2, Device: 2, Kind: lifecycle.KindLeave},
		},
	}
	r := runContinuous(t, cfg)
	rep := r.Report()
	if len(rep.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(rep.Windows))
	}
	// Device 2 joins at window 1 and leaves at window 2; device 0 leaves at 1.
	for w, want := range []int{3, 3, 2} {
		if got := rep.Windows[w].Devices; got != want {
			t.Errorf("window %d devices = %d, want %d", w, got, want)
		}
	}
	if len(rep.Windows[1].Events) != 3 {
		t.Errorf("window 1 events = %v, want the leave, runtime upgrade and join", rep.Windows[1].Events)
	}
	// Window 0 has no paired stats; later windows do.
	if rep.Windows[0].Paired != nil {
		t.Errorf("window 0 has paired stats")
	}
	if rep.Windows[1].Paired == nil || rep.Windows[1].Paired.Cells == 0 {
		t.Errorf("window 1 paired stats missing or empty: %+v", rep.Windows[1].Paired)
	}

	st := r.State()
	var dev1 *ContDeviceState
	for i := range st.Devices {
		if st.Devices[i].ID == 1 {
			dev1 = &st.Devices[i]
		}
	}
	if dev1 == nil {
		t.Fatal("device 1 missing from state")
	}
	base := NewGenerator(7, cfg.Fleet.Scale, 1).Device(1).Profile.RuntimeName()
	for _, ws := range dev1.Windows {
		want := base
		if ws.Window >= 1 {
			want = nn.RuntimePruned
		}
		if ws.Runtime != want {
			t.Errorf("device 1 window %d runtime = %q, want %q", ws.Window, ws.Runtime, want)
		}
	}

	// Device 0 left at window 1: its state lists only window 0. Device 2 was
	// present in window 1 alone.
	for _, ds := range st.Devices {
		want := map[int]int{0: 0, 2: 1}
		w, ok := want[ds.ID]
		if !ok {
			continue
		}
		if len(ds.Windows) != 1 || ds.Windows[0].Window != w {
			t.Errorf("device %d windows = %+v, want only window %d", ds.ID, ds.Windows, w)
		}
	}
}

// TestEventFold folds devices' events window by window as runDevice does
// (presentAtStart, then applyEvent at each event's window): a late join and
// a leave bound the presence, each OS upgrade flips the decode path, the
// latest runtime upgrade stands, and thermal events compound, one jittered
// throttle each.
func TestEventFold(t *testing.T) {
	spec := lifecycle.Spec{Devices: 3, Windows: 8, Seed: 1, Events: []lifecycle.Event{
		{Window: 2, Device: 0, Kind: lifecycle.KindJoin},
		{Window: 6, Device: 0, Kind: lifecycle.KindLeave},
		{Window: 3, Device: 0, Kind: lifecycle.KindOSUpgrade},
		{Window: 5, Device: 0, Kind: lifecycle.KindOSUpgrade},
		{Window: 4, Device: 0, Kind: lifecycle.KindRuntimeUpgrade, Runtime: nn.RuntimePruned},
		{Window: 3, Device: 1, Kind: lifecycle.KindThermalDrift, Severity: 0.7},
		{Window: 5, Device: 1, Kind: lifecycle.KindThermalDrift, Severity: 0.7},
	}}
	sched, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(spec.Seed, 2, spec.Devices) // caches every device
	// fold returns device i's profile in each window, nil where it is absent.
	fold := func(i int) []*device.Profile {
		dev := *gen.Device(i)
		evs := sched.DeviceEvents(i)
		present := presentAtStart(evs)
		out := make([]*device.Profile, spec.Windows)
		for w := range out {
			for ; len(evs) > 0 && evs[0].Window <= w; evs = evs[1:] {
				present = gen.applyEvent(&dev, evs[0], present)
			}
			if present {
				out[w] = dev.Profile
			}
		}
		return out
	}

	base := gen.Device(0).Profile
	flipped := device.UpgradeOS(base).Decode
	for w, p := range fold(0) {
		if present := w >= 2 && w < 6; (p != nil) != present {
			t.Fatalf("device 0 window %d present = %v, want %v", w, p != nil, present)
		}
		if p == nil {
			continue
		}
		decode, runtime := base.Decode, base.RuntimeName()
		if w == 3 || w == 4 {
			decode = flipped
		}
		if w >= 4 {
			runtime = nn.RuntimePruned
		}
		if p.Decode != decode || p.RuntimeName() != runtime {
			t.Errorf("device 0 window %d: decode %+v runtime %q, want %+v and %q", w, p.Decode, p.RuntimeName(), decode, runtime)
		}
	}

	hot := gen.Device(1).Profile
	throttle := func(p *device.Profile, w int) *device.Profile {
		return device.Throttle(p, 0.7, fmath.Mix(spec.Seed, 6, 1, int64(w)))
	}
	once := throttle(hot, 3)
	twice := throttle(once, 5)
	if twice.Sensor.Params == device.Throttle(hot, 1, fmath.Mix(spec.Seed, 6, 1, 5)).Sensor.Params {
		t.Fatal("two throttles equal one of the capped summed severity; the test cannot tell the folds apart")
	}
	for w, p := range fold(1) {
		want := hot
		switch {
		case w >= 5:
			want = twice
		case w >= 3:
			want = once
		}
		if p == nil || p.Sensor.Params != want.Sensor.Params {
			t.Errorf("device 1 window %d sensor = %+v, want %+v", w, p, want.Sensor.Params)
		}
	}

	// Device 2 has no events: present everywhere, its profile untouched.
	for w, p := range fold(2) {
		if p != gen.Device(2).Profile {
			t.Errorf("device 2 window %d profile = %p, want the synthesized %p", w, p, gen.Device(2).Profile)
		}
	}
}

// TestCaptureEpochStreams pins the virtual-time seed streams: different
// epochs of the same cell draw different noise, the same epoch reproduces
// exactly, and epoch streams never replay the one-shot Capture stream.
func TestCaptureEpochStreams(t *testing.T) {
	gen := NewGenerator(3, 2, 0)
	eng := NewEngine(3, 2, 0)
	d := gen.Device(0)
	it := Items(3, 1)[0]

	a1, _ := eng.CaptureEpoch(d, it, 0, 1)
	a1again, _ := eng.CaptureEpoch(d, it, 0, 1)
	if !bytes.Equal(imagePixelBytes(a1), imagePixelBytes(a1again)) {
		t.Fatal("same epoch capture not reproducible")
	}
	a2, _ := eng.CaptureEpoch(d, it, 0, 2)
	if bytes.Equal(imagePixelBytes(a1), imagePixelBytes(a2)) {
		t.Fatal("different epochs produced identical captures")
	}
	oneShot, _ := eng.Capture(d, it, 0)
	e0, _ := eng.CaptureEpoch(d, it, 0, 0)
	if bytes.Equal(imagePixelBytes(oneShot), imagePixelBytes(e0)) {
		t.Fatal("epoch 0 replays the one-shot capture stream")
	}
}

// TestContinuousCancel checks graceful drain: after cancel, unstarted
// timelines are skipped, done closes, and the partial report stays valid.
func TestContinuousCancel(t *testing.T) {
	cfg := contTestConfig(1)
	cfg.Fleet.Devices = 6
	r, err := NewContinuousRunner(cfg, testFactory())
	if err != nil {
		t.Fatal(err)
	}
	r.Cancel()
	<-r.Start()
	done, total, _ := r.Progress()
	if done != 0 || total != 6 {
		t.Fatalf("progress after pre-start cancel: %d/%d, want 0/6", done, total)
	}
	rep := r.Report()
	if rep.DevicesDone != 0 || len(rep.Windows) != cfg.WithDefaults().Windows {
		t.Fatalf("cancelled report: devices=%d windows=%d", rep.DevicesDone, len(rep.Windows))
	}
}

// TestContinuousCapturesBudget checks Captures() is the upper bound the
// realized count respects.
func TestContinuousCapturesBudget(t *testing.T) {
	cfg := contTestConfig(2)
	r := runContinuous(t, cfg)
	_, _, captures := r.Progress()
	if max := cfg.Captures(); captures > max {
		t.Fatalf("realized captures %d exceed budget %d", captures, max)
	}
	if captures == 0 {
		t.Fatal("no captures ran")
	}
}
