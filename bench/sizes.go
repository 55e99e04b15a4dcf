package main

import (
	"repro/internal/loadgen"
)

// sizes fixes every size and rate of the benchmark. frozen is what a
// benchmark run uses: it was tuned once, on the commit that added the
// benchmark, so that each timed section fills -seconds (default 20) on a
// 2-core box, and it stays as it is so that numbers compare across commits.
// toy is what smoke_test.go uses to run every workload in a few seconds.
type sizes struct {
	// Setups is how many times a run builds its servers to report the
	// median set-up time; MinPasses is the fewest passes or segments a
	// median is taken over.
	Setups, MinPasses int
	// ModelCheckItems is how many clean renders the snapshot is scored on
	// at every load.
	ModelCheckItems int

	// batch_*: one pass is a run of Devices x Items x Angles cells.
	BatchDevices, BatchItems int
	BatchAngles              []int
	// BudgetDevices is the size of the smaller fleet that the traced walk
	// and the layer-budget comparisons cover.
	BudgetDevices int

	Spread, Hot serveSizes
	// SatSegments is how many equal segments the closed-loop saturation
	// step is cut into.
	SatSegments int

	// sharded_windows: Devices x Items x Angles x Windows cells at most;
	// churn removes some. The first cohort's OS is upgraded at UpgradeWindow.
	ShardDevices, ShardItems int
	ShardAngles              []int
	ShardWindows             int
	UpgradeWindow            int

	// YardUnits sizes one reading of the box's yardstick (env.go), and RefMops
	// is the reading ops_per_s is scaled to: what the box the benchmark was
	// tuned on reads when it has no busy neighbour.
	YardUnits int
	RefMops   float64

	// ProbeCalls is how many timed calls a per-layer median is taken over;
	// NNBatch is the batch size of the nn.infer_us probe.
	ProbeCalls, NNBatch int
}

// serveSizes shapes one serve workload. Step lengths are shares of
// -seconds: each step is MinPasses equal segments.
type serveSizes struct {
	Devices, Items int     // sampled cell universe (times 5 angles)
	Dist           string  // arrival distribution
	Shape          float64 // its k
	LoRate, HiRate float64 // req/s of the two open-loop steps
	LoShare        float64
	HiShare        float64
	SatShare       float64
	SatCallers     int // closed-loop callers of the saturation step; 0 means P
	MaxBatch       int
	LingerMs       int64
	SLOMs          float64 // latency limit slo_miss_share.hi judges against
	Sockets        bool    // real loopback sockets, or the handler called in process
	WarmPerDevice  bool    // warm up with one request per device
}

var frozen = sizes{
	Setups: 3, MinPasses: 3, ModelCheckItems: 40,
	BatchDevices: 48, BatchItems: 4, BatchAngles: []int{0, 2, 4},
	BudgetDevices: 12,
	Spread: serveSizes{
		Devices: 256, Items: 32, Dist: loadgen.DistPoisson, Shape: 1,
		LoRate: 125, HiRate: 200, LoShare: 0.15, HiShare: 0.35, SatShare: 0.5,
		MaxBatch: 1, SLOMs: 100, Sockets: true, WarmPerDevice: true,
	},
	Hot: serveSizes{
		Devices: 2, Items: 1, Dist: loadgen.DistGamma, Shape: 0.5,
		LoRate: 150, HiRate: 350, LoShare: 0.15, HiShare: 0.35, SatShare: 0.5,
		SatCallers: 32, MaxBatch: 16, LingerMs: 2, SLOMs: 100,
	},
	SatSegments:  10,
	ShardDevices: 24, ShardItems: 2, ShardAngles: []int{0, 3}, ShardWindows: 8, UpgradeWindow: 5,
	YardUnits: 2000, RefMops: 1700,
	ProbeCalls: 200, NNBatch: 24,
}

var toy = sizes{
	Setups: 2, MinPasses: 2, ModelCheckItems: 10,
	BatchDevices: 4, BatchItems: 2, BatchAngles: []int{0},
	BudgetDevices: 2,
	Spread: serveSizes{
		Devices: 4, Items: 2, Dist: loadgen.DistPoisson, Shape: 1,
		LoRate: 100, HiRate: 200, LoShare: 0.3, HiShare: 0.4, SatShare: 0.3,
		MaxBatch: 1, SLOMs: 1000, Sockets: true, WarmPerDevice: true,
	},
	Hot: serveSizes{
		Devices: 2, Items: 1, Dist: loadgen.DistGamma, Shape: 0.5,
		LoRate: 100, HiRate: 200, LoShare: 0.3, HiShare: 0.4, SatShare: 0.3,
		SatCallers: 8, MaxBatch: 16, LingerMs: 2, SLOMs: 1000,
	},
	SatSegments:  2,
	ShardDevices: 5, ShardItems: 1, ShardAngles: []int{0}, ShardWindows: 6, UpgradeWindow: 4,
	YardUnits: 20, RefMops: 1700,
	ProbeCalls: 4, NNBatch: 2,
}
