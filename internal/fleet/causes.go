package fleet

import (
	"sort"

	"repro/internal/imaging"
	"repro/internal/lifecycle"
	"repro/internal/train"
)

// EventCause is what one kind of lifecycle event did to one cohort in one
// window, measured by paired replay: every cell of each changed device,
// photographed at the window's epoch by the device as it stood just before
// the event and just after, each classified by its own runtime. The two
// captures share the window's sensor noise draws, so a cell whose
// correctness differs between them was flipped by the event and by nothing
// else. All fields are integers, summed over the cohort's devices.
type EventCause struct {
	Window int    `json:"window"`
	Cohort string `json:"cohort"`
	Kind   string `json:"kind"`
	// Replayed counts the cells replayed (each once before, once after).
	Replayed int `json:"replayed"`
	// Flips counts the cells whose correctness the event changed;
	// Regressions (correct → incorrect) and Improvements split them.
	Flips        int `json:"flips"`
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// EventCauses replays every os_upgrade, runtime_upgrade and thermal_drift
// of a continuous run on a device present in its window, and returns one
// row a (window, cohort, kind), ordered by window, cohort and kind. It runs
// apart from the run itself — the run's cells, report, windows and drift
// are the same with or without it — and its rows are the same for any
// worker count.
func EventCauses(cfg ContinuousConfig, factory BackendFactory) ([]EventCause, error) {
	cfg = cfg.WithDefaults()
	sched, err := cfg.LifecycleSpec().Expand()
	if err != nil {
		return nil, err
	}
	s := newSweep(cfg, sched, true, factory)
	s.prepare()
	perDevice := make([][]EventCause, len(s.slots))
	s.pool.RunWorker(len(s.slots), func(worker, i int) {
		perDevice[i] = s.replayEvents(worker, cfg.Fleet.DeviceLo+i)
	})
	type key struct {
		window       int
		cohort, kind string
	}
	index := map[key]int{}
	var out []EventCause
	for _, dev := range perDevice {
		for _, c := range dev {
			k := key{c.Window, c.Cohort, c.Kind}
			i, ok := index[k]
			if !ok {
				index[k] = len(out)
				out = append(out, c)
				continue
			}
			out[i].Replayed += c.Replayed
			out[i].Flips += c.Flips
			out[i].Regressions += c.Regressions
			out[i].Improvements += c.Improvements
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		if a.Cohort != b.Cohort {
			return a.Cohort < b.Cohort
		}
		return a.Kind < b.Kind // os_upgrade < runtime_upgrade < thermal_drift
	})
	return out, nil
}

// replayEvents folds device id's events window by window as runDevice does
// and replays each os_upgrade, runtime_upgrade and thermal_drift of a window
// the device is present in: its cells before the event and after it, at the
// window's epoch. A window with several such events replays each against
// the device as the one before it left it.
func (s *sweep) replayEvents(worker, id int) []EventCause {
	d := s.gen.Device(id)
	dev := *d
	evs := s.sched.DeviceEvents(id)
	present := presentAtStart(evs)
	type change struct {
		kind      string
		pre, post Device
	}
	var rows []EventCause
	for w := 0; w < s.cfg.Windows && len(evs) > 0; w++ {
		var changes []change
		for ; len(evs) > 0 && evs[0].Window <= w; evs = evs[1:] {
			pre := dev
			present = s.gen.applyEvent(&dev, evs[0], present)
			switch k := evs[0].Kind; k {
			case lifecycle.KindOSUpgrade, lifecycle.KindRuntimeUpgrade, lifecycle.KindThermalDrift:
				changes = append(changes, change{k, pre, dev})
			}
		}
		if !present {
			continue
		}
		for _, c := range changes {
			before, after := s.replayCells(worker, &c.pre, w), s.replayCells(worker, &c.post, w)
			row := EventCause{Window: w, Cohort: d.Cohort, Kind: c.kind, Replayed: len(before)}
			for i := range before {
				switch {
				case before[i] && !after[i]:
					row.Regressions++
				case !before[i] && after[i]:
					row.Improvements++
				}
			}
			row.Flips = row.Regressions + row.Improvements
			rows = append(rows, row)
		}
	}
	return rows
}

// replayCells photographs the scene matrix on dev at epoch w, classifies it
// with dev's runtime and reports, cell by cell in matrix order, whether the
// top-1 class is right.
func (s *sweep) replayCells(worker int, dev *Device, w int) []bool {
	_, backend := s.backendFor(dev)
	angles := s.cfg.Fleet.Angles
	images := make([]*imaging.Image, 0, len(s.items)*len(angles))
	for _, it := range s.items {
		for _, a := range angles {
			img, _ := s.engine.CaptureEpoch(dev, it, a, w)
			images = append(images, img)
		}
	}
	preds, _, _ := train.EvaluateIn(s.scratchFor(worker), backend, images, s.cfg.Fleet.BatchSize)
	correct := make([]bool, len(images))
	for i, img := range images {
		imaging.PutImage(img)
		correct[i] = preds[i] == int(s.items[i/len(angles)].Class)
	}
	return correct
}
