package fleet

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

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
// run: churned-out devices shrink window populations, and the runtime
// upgrade shows in the device states.
func TestContinuousLifecycleShapesReport(t *testing.T) {
	cfg := ContinuousConfig{
		Fleet:   Config{Devices: 4, Items: 1, Angles: []int{0}, Seed: 7, Workers: 2},
		Windows: 3,
		Events: []lifecycle.Event{
			{Window: 1, Device: 0, Kind: lifecycle.KindLeave},
			{Window: 1, Device: 1, Kind: lifecycle.KindRuntimeUpgrade, Runtime: nn.RuntimePruned},
		},
	}
	r := runContinuous(t, cfg)
	rep := r.Report()
	if len(rep.Windows) != 3 {
		t.Fatalf("got %d windows, want 3", len(rep.Windows))
	}
	if rep.Windows[0].Devices != 4 {
		t.Errorf("window 0 devices = %d, want 4", rep.Windows[0].Devices)
	}
	if rep.Windows[1].Devices != 3 {
		t.Errorf("window 1 devices = %d, want 3 after leave", rep.Windows[1].Devices)
	}
	if len(rep.Windows[1].Events) != 2 {
		t.Errorf("window 1 events = %v, want the leave and runtime upgrade", rep.Windows[1].Events)
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

	// Device 0 left at window 1: its state lists only window 0.
	for _, ds := range st.Devices {
		if ds.ID != 0 {
			continue
		}
		if len(ds.Windows) != 1 || ds.Windows[0].Window != 0 {
			t.Errorf("device 0 windows = %+v, want only window 0", ds.Windows)
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
