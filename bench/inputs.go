package main

import (
	"repro/internal/fleet"
	"repro/internal/nn"
)

// mixedSeed derives a fleet's seed from the workload seed: the first of
// seed*4096, seed*4096+1, ... under which the fleet's devices run float32,
// int8 and pruned in exactly the 3:2:1 the generator assigns on average.
// A device's runtime is drawn from (seed, id), so two raw seeds give fleets
// whose cost per cell differs by several percent and whose allocation per
// cell differs by a quarter; derived seeds differ only in which devices,
// scenes and noise they draw, which is what a benchmark seed should vary.
func (r *run) mixedSeed(devices int) int64 {
	if s, ok := r.seeds[devices]; ok {
		return s
	}
	want := map[string]int{nn.RuntimeFloat32: devices / 2, nn.RuntimeInt8: devices / 3}
	want[nn.RuntimePruned] = devices - want[nn.RuntimeFloat32] - want[nn.RuntimeInt8]
candidates:
	for cand := r.opt.seed * 4096; ; cand++ {
		gen := fleet.NewGenerator(cand, 0, 0)
		got := map[string]int{}
		for id := 0; id < devices; id++ {
			rt := gen.Device(id).Profile.RuntimeName()
			if got[rt]++; got[rt] > want[rt] {
				continue candidates
			}
		}
		r.seeds[devices] = cand
		r.printf("inputs: fleet of %d devices uses seed %d (mix %v)\n", devices, cand, got)
		return cand
	}
}
