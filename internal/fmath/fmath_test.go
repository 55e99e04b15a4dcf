package fmath

import "testing"

// TestMixPinnedVectors pins Mix to the values the three per-package copies
// it replaced produced: every cell seed in the tree is one of its outputs,
// so a drift here silently re-draws every capture.
func TestMixPinnedVectors(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		vals []int64
		want int64
	}{
		{0, nil, 0},
		{0, []int64{0}, -2152535657050944081},
		{42, []int64{2, 7, 3, 4}, 9141170704010316258},
		{-1, []int64{5, 1 << 40, -9}, -3117208591958472935},
		{1234567890123, []int64{0x11FEC1C1E, 63}, -8069932768496032192},
		{7, []int64{6, 12, 3}, -685282335761714154},
	} {
		if got := Mix(tc.seed, tc.vals...); got != tc.want {
			t.Errorf("Mix(%d, %v) = %d, want %d", tc.seed, tc.vals, got, tc.want)
		}
	}
}
