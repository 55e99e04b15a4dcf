package fleet

import (
	"sort"
	"strings"

	"repro/internal/lifecycle"
	"repro/internal/metrics"
	"repro/internal/stability"
)

// WindowReport is one virtual-time window's summary: the usual fleet
// stability statistics over the window's records, the paired comparison
// against the previous window (flip rate between consecutive windows is the
// drift detector's input series), and the lifecycle events applied at the
// window's start.
type WindowReport struct {
	Window       int              `json:"window"`
	Devices      int              `json:"devices"`
	Records      int              `json:"records"`
	Accuracy     float64          `json:"accuracy"`
	TopKAccuracy float64          `json:"topk_accuracy"`
	Top1         InstabilityStats `json:"top1"`
	CrossRuntime InstabilityStats `json:"cross_runtime"`
	// Paired compares this window against the previous one over shared
	// cells (nil for window 0).
	Paired       *stability.PairedStats `json:"paired,omitempty"`
	Score        OnlineStats            `json:"score"`
	CaptureBytes OnlineStats            `json:"capture_bytes"`
	Events       []lifecycle.Event      `json:"events,omitempty"`
}

// CohortDrift is one cohort's flip-rate series and detector verdicts.
type CohortDrift struct {
	Cohort string                 `json:"cohort"`
	Rates  []float64              `json:"rates"`
	Points []stability.DriftPoint `json:"points"`
}

// DriftFlag is one detected drift: a window whose flip rate shifted beyond
// the configured threshold, with the lifecycle events it is attributed to —
// the events of the nearest window at or before the flagged one (filtered
// to the cohort for cohort-level flags).
type DriftFlag struct {
	Window int `json:"window"`
	// Cohort is empty for fleet-wide flags.
	Cohort string            `json:"cohort,omitempty"`
	Value  float64           `json:"value"`
	Mean   float64           `json:"mean"`
	Z      float64           `json:"z"`
	Events []lifecycle.Event `json:"events,omitempty"`
}

// DriftReport is the detector's view of the run: the fleet-wide flip-rate
// series (Rates[w] pairs window w against w-1; Rates[0] is always 0), the
// per-window detector points, per-cohort series, and the flagged windows
// with event attribution.
type DriftReport struct {
	Config  stability.DriftConfig  `json:"config"`
	Rates   []float64              `json:"rates"`
	Points  []stability.DriftPoint `json:"points"`
	Cohorts []CohortDrift          `json:"cohorts"`
	Flags   []DriftFlag            `json:"flags"`
}

// FleetReport is the deterministic summary of a continuous fleet run: for
// one ContinuousConfig, the final report marshals to byte-identical JSON no
// matter how many workers executed it or how the device range was sharded.
type FleetReport struct {
	Config      ContinuousConfig `json:"config"`
	DevicesDone int              `json:"devices_done"`
	Captures    int              `json:"captures"`
	Windows     []WindowReport   `json:"windows"`
	Drift       DriftReport      `json:"drift"`
}

// JSON marshals the report with stable formatting.
func (r FleetReport) JSON() []byte { return mustJSON(r) }

// cohortOfEnv extracts the cohort (base phone name) from a record Env like
// "samsung-galaxy-s10/fleet-00005".
func cohortOfEnv(env string) string {
	if i := strings.IndexByte(env, '/'); i >= 0 {
		return env[:i]
	}
	return env
}

// renderFleetReport assembles a FleetReport from a continuous run's parts —
// the single rendering path for live runners and coordinator-merged shard
// states, which is what makes the two byte-identical. All windows
// 0..Windows-1 render even when empty (a fully churned-out window is a
// meaningful data point).
func renderFleetReport(cfg ContinuousConfig, sched *lifecycle.Schedule,
	captures int, windowed *stability.Windowed, views []deviceView) FleetReport {
	rep := FleetReport{Config: cfg, DevicesDone: len(views), Captures: captures}
	cohorts := NewGenerator(cfg.Fleet.Seed, cfg.Fleet.Scale, 1).Cohorts()

	// Per-window outcomes, fleet-wide and split by cohort (a record's cohort
	// is its Env prefix — the base phone the device was synthesized from).
	outcomes := make([]map[stability.Cell]stability.Outcome, cfg.Windows)
	byCohort := make([]map[string]map[stability.Cell]stability.Outcome, cfg.Windows)
	for w := 0; w < cfg.Windows; w++ {
		outcomes[w] = windowed.Outcomes(w)
		byCohort[w] = map[string]map[stability.Cell]stability.Outcome{}
		for cell, out := range outcomes[w] {
			co := cohortOfEnv(cell.Env)
			if byCohort[w][co] == nil {
				byCohort[w][co] = map[stability.Cell]stability.Outcome{}
			}
			byCohort[w][co][cell] = out
		}

		snap := windowed.Snapshot(w)
		wr := WindowReport{
			Window:       w,
			Records:      snap.Records,
			Accuracy:     snap.Accuracy,
			TopKAccuracy: snap.TopKAccuracy,
			Top1:         instability(snap.Top1),
			CrossRuntime: instability(snap.CrossRuntime),
			Events:       sched.WindowEvents(w),
		}
		if w > 0 {
			paired := stability.ComparePair(outcomes[w-1], outcomes[w])
			wr.Paired = &paired
		}
		// Device-ID order is the float accumulation order; views arrive
		// sorted.
		var score, bytes metrics.Online
		for _, v := range views {
			if !v.windows[w].ran {
				continue
			}
			wr.Devices++
			score.Merge(v.windows[w].score)
			bytes.Merge(v.windows[w].bytes)
		}
		wr.Score = onlineStats(score)
		wr.CaptureBytes = onlineStats(bytes)
		rep.Windows = append(rep.Windows, wr)
	}

	rep.Drift = renderDrift(cfg, sched, cohorts, outcomes, byCohort)
	return rep
}

// renderDrift runs the detector over the fleet-wide and per-cohort
// flip-rate series and attributes flags to lifecycle events.
func renderDrift(cfg ContinuousConfig, sched *lifecycle.Schedule, cohorts []string,
	outcomes []map[stability.Cell]stability.Outcome,
	byCohort []map[string]map[stability.Cell]stability.Outcome) DriftReport {
	dr := DriftReport{Config: cfg.Drift}

	rates := func(series func(w int) map[stability.Cell]stability.Outcome) []float64 {
		out := make([]float64, cfg.Windows)
		for w := 1; w < cfg.Windows; w++ {
			out[w] = stability.ComparePair(series(w-1), series(w)).FlipRate
		}
		return out
	}
	// The detector scans rates[1:] (rate[0] pairs nothing); points remap to
	// report window indices.
	detect := func(r []float64) []stability.DriftPoint {
		if len(r) < 2 {
			return nil
		}
		points := stability.DetectDrift(r[1:], cfg.Drift)
		for i := range points {
			points[i].Window++
		}
		return points
	}

	dr.Rates = rates(func(w int) map[stability.Cell]stability.Outcome { return outcomes[w] })
	dr.Points = detect(dr.Rates)

	// cohortMembers[c] marks device ids in cohort c: fleet devices are
	// assigned to bases round-robin, so membership is id mod len(cohorts).
	cohortIdx := map[string]int{}
	for i, c := range cohorts {
		cohortIdx[c] = i
	}
	attribute := func(flagWindow int, cohort string) []lifecycle.Event {
		// Walk back from the flagged window to the nearest window with
		// matching events — the "preceding lifecycle event" the shift is
		// attributed to.
		for w := flagWindow; w >= 0; w-- {
			var evs []lifecycle.Event
			for _, ev := range sched.WindowEvents(w) {
				if cohort != "" && ev.Device%len(cohorts) != cohortIdx[cohort] {
					continue
				}
				evs = append(evs, ev)
			}
			if len(evs) > 0 {
				return evs
			}
		}
		return nil
	}
	for _, p := range dr.Points {
		if p.Flagged {
			dr.Flags = append(dr.Flags, DriftFlag{
				Window: p.Window, Value: p.Value, Mean: p.Mean, Z: p.Z,
				Events: attribute(p.Window, ""),
			})
		}
	}

	sortedCohorts := append([]string(nil), cohorts...)
	sort.Strings(sortedCohorts)
	for _, c := range sortedCohorts {
		cd := CohortDrift{Cohort: c}
		cd.Rates = rates(func(w int) map[stability.Cell]stability.Outcome { return byCohort[w][c] })
		cd.Points = detect(cd.Rates)
		for _, p := range cd.Points {
			if p.Flagged {
				dr.Flags = append(dr.Flags, DriftFlag{
					Window: p.Window, Cohort: c, Value: p.Value, Mean: p.Mean, Z: p.Z,
					Events: attribute(p.Window, c),
				})
			}
		}
		dr.Cohorts = append(dr.Cohorts, cd)
	}

	sort.SliceStable(dr.Flags, func(i, j int) bool {
		if dr.Flags[i].Window != dr.Flags[j].Window {
			return dr.Flags[i].Window < dr.Flags[j].Window
		}
		return dr.Flags[i].Cohort < dr.Flags[j].Cohort
	})
	return dr
}
