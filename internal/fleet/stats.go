package fleet

import (
	"encoding/json"
	"sort"

	"repro/internal/metrics"
	"repro/internal/stability"
)

// OnlineStats is the JSON form of a streaming value summary.
type OnlineStats struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func onlineStats(o metrics.Online) OnlineStats {
	if o.N == 0 {
		return OnlineStats{}
	}
	return OnlineStats{N: o.N, Mean: o.Mean(), Stddev: o.Stddev(), Min: o.MinVal, Max: o.MaxVal}
}

// InstabilityStats is one instability summary with its percentage.
type InstabilityStats struct {
	Groups   int     `json:"groups"`
	Unstable int     `json:"unstable"`
	Percent  float64 `json:"percent"`
}

func instability(s stability.Summary) InstabilityStats {
	return InstabilityStats{Groups: s.Groups, Unstable: s.Unstable, Percent: s.Percent()}
}

// CohortStats summarizes one base-phone cohort of the synthesized fleet:
// its within-cohort instability (divergence among devices jittered from the
// same base) and accuracy.
type CohortStats struct {
	Cohort       string           `json:"cohort"`
	Devices      int              `json:"devices"`
	Records      int              `json:"records"`
	Accuracy     float64          `json:"accuracy"`
	TopKAccuracy float64          `json:"topk_accuracy"`
	Top1         InstabilityStats `json:"top1"`
}

// ClassStats is per-true-class instability.
type ClassStats struct {
	Class int              `json:"class"`
	Top1  InstabilityStats `json:"top1"`
}

// RuntimeStats summarizes one inference runtime across the fleet: how many
// devices ran it, its accuracy, and its within-runtime instability (the
// divergence that remains with the stack held fixed — optics, noise, ISP
// and codec effects only).
type RuntimeStats struct {
	Runtime      string           `json:"runtime"`
	Devices      int              `json:"devices"`
	Records      int              `json:"records"`
	Accuracy     float64          `json:"accuracy"`
	TopKAccuracy float64          `json:"topk_accuracy"`
	Top1         InstabilityStats `json:"top1"`
}

// Stats is the deterministic summary of a fleet run: for one Config and
// seed, the final Stats marshal to byte-identical JSON no matter how many
// workers executed the run. In-flight snapshots expose the same shape with
// partial counts.
type Stats struct {
	Config       Config           `json:"config"`
	DevicesDone  int              `json:"devices_done"`
	Captures     int              `json:"captures"`
	Records      int              `json:"records"`
	Accuracy     float64          `json:"accuracy"`
	TopKAccuracy float64          `json:"topk_accuracy"`
	Top1         InstabilityStats `json:"top1"`
	TopK         InstabilityStats `json:"topk"`
	ByCohort     []CohortStats    `json:"by_cohort"`
	ByClass      []ClassStats     `json:"by_class"`
	ByRuntime    []RuntimeStats   `json:"by_runtime"`
	// CrossRuntime is instability attributable to the runtime stack alone:
	// over groups observed by ≥2 runtimes, those unstable overall while
	// every runtime was internally consistent. Nonzero means the same
	// weights, differently compiled, label the same scenes differently.
	CrossRuntime InstabilityStats `json:"cross_runtime"`
	Score        OnlineStats      `json:"score"`
	CaptureBytes OnlineStats      `json:"capture_bytes"`
}

// JSON marshals the stats with stable formatting.
func (s Stats) JSON() []byte { return mustJSON(s) }

// mustJSON marshals a snapshot document.
func mustJSON(doc any) []byte {
	b, err := json.Marshal(doc)
	if err != nil { // struct of plain values; cannot fail
		panic(err)
	}
	return b
}

// renderStats assembles a Stats snapshot from a one-shot run's parts: its
// captures so far, window 0's accumulator and the finished devices' views.
// It is the single rendering path for live runner snapshots and
// coordinator-merged shard states, which is what makes the two
// byte-identical: callers must pass views in ascending device-ID order
// (float accumulation order must never depend on scheduling or shard
// arrival).
func renderStats(cfg Config, captures int, acc *stability.Accumulator, views []deviceView) Stats {
	snap := acc.Snapshot()
	s := Stats{
		Config:       cfg,
		DevicesDone:  len(views),
		Captures:     captures,
		Records:      snap.Records,
		Accuracy:     snap.Accuracy,
		TopKAccuracy: snap.TopKAccuracy,
		Top1:         instability(snap.Top1),
		TopK:         instability(snap.TopK),
	}

	classes := make([]int, 0, len(snap.ByClass))
	for c := range snap.ByClass {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		s.ByClass = append(s.ByClass, ClassStats{Class: c, Top1: instability(snap.ByClass[c])})
	}

	s.CrossRuntime = instability(snap.CrossRuntime)

	var score, bytes metrics.Online
	cohortDevices := map[string]int{}
	runtimeDevices := map[string]int{}
	for _, v := range views {
		w := &v.windows[0] // a one-shot device is present in its only window
		score.Merge(w.score)
		bytes.Merge(w.bytes)
		cohortDevices[v.cohort]++
		runtimeDevices[w.runtime]++
	}
	s.Score = onlineStats(score)
	s.CaptureBytes = onlineStats(bytes)

	for _, ra := range snap.ByRuntime {
		s.ByRuntime = append(s.ByRuntime, RuntimeStats{
			Runtime:      ra.Runtime,
			Devices:      runtimeDevices[ra.Runtime],
			Records:      ra.Records,
			Accuracy:     ra.Accuracy,
			TopKAccuracy: ra.TopKAccuracy,
			Top1:         instability(ra.Top1),
		})
	}

	// The cohort split is derived from the run's one accumulator (a
	// record's cohort is its Env prefix). Every cohort of the fleet renders,
	// even one no finished device belongs to yet.
	byCohort := acc.ByPartition(cohortOfEnv)
	cohorts := NewGenerator(cfg.Seed, cfg.Scale, 1).Cohorts()
	sort.Strings(cohorts)
	for _, cohort := range cohorts {
		cs := byCohort[cohort]
		s.ByCohort = append(s.ByCohort, CohortStats{
			Cohort:       cohort,
			Devices:      cohortDevices[cohort],
			Records:      cs.Records,
			Accuracy:     cs.Accuracy,
			TopKAccuracy: cs.TopKAccuracy,
			Top1:         instability(cs.Top1),
		})
	}
	return s
}
