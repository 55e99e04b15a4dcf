#!/usr/bin/env bash
# Fused multiply-add lint of the portable (!amd64) build. On arm64 the Go
# compiler may fuse x*y + z into one instruction that rounds once; amd64 and
# 386 never do, so a fused cell would not have the bits the goldens pin. The
# Go kernels of the capture→infer path and of training therefore round every
# product explicitly, float32(x*y) + z, which forbids the fusion. Nothing here can
# execute arm64; what it can do is read the compiler's listing and fail on
# any fused instruction attributed to a line of that path, or of the report
# path that summarizes the cells.
#
#   ./scripts/lint_fma.sh              # build the arm64 listing and lint it
#   ./scripts/lint_fma.sh --selftest   # lint the linter (CI runs this too)
set -euo pipefail

# The cell path: every file of the four capture packages, of device, which
# draws each fleet member's parameters from its seed, of dataset, which draws
# the scene a cell photographs, of fmath, whose power bracket the display and
# the gamma curves round through, of nn, which runs the inference plan and
# trains the model on the same kernels, and of tensor and train, which finish
# the training that produces the weights a cell runs. The report path:
# metrics, whose Welford state a shard ships and whose standard deviations
# the run stats render, stability, whose drift z-scores and CUSUM the
# fleet drift report renders, lifecycle, whose schedule every peer and the
# coordinator expand on their own from the spec's seed, loadgen, whose
# arrival draws a replayed trace schedules from its seed, and fleetapi, whose
# fairness index the SLO reports render.
PATH_RE='internal/(imaging|isp|codec|sensor|device|dataset|fmath|nn|tensor|train|metrics|stability|lifecycle|loadgen|fleetapi)/[a-z0-9_]+\.go'

# fused prints the fused multiply-adds of the listing on stdin that lie on the
# cell or report path, and fails if there is one.
fused() {
  ! grep -E "\((/[^():]*/)?(${PATH_RE}):[0-9]+\)[[:space:]]+(FMADD|FMSUB|FNMADD|FNMSUB)"
}

if [ "${1:-}" = "--selftest" ]; then
  clean='	0x0010 00016 (/src/internal/imaging/filter.go:70)	FMULS	F1, F0, F0
	0x0014 00020 (/src/internal/imaging/filter.go:70)	FADDS	F0, F2, F2
	0x0020 00032 (/src/internal/fleet/engine.go:88)	FMADDS	F4, F0, F2, F0'
  if ! printf '%s\n' "$clean" | fused >/dev/null; then
    echo "lint_fma selftest: flagged a listing whose only fused line is off the cell and report paths" >&2
    exit 1
  fi
  for line in \
    '	0x0014 00020 (/src/internal/imaging/filter.go:70)	FMADDS	F4, F0, F2, F0' \
    '	0x0018 00024 (/src/internal/nn/infer_plan.go:233)	FNMSUBS	F4, F0, F2, F0' \
    '	0x001c 00028 (internal/sensor/sensor.go:120)	FMSUBD	F4, F0, F2, F0' \
    '	0x0054 00084 (/src/internal/device/synth.go:75)	FMADDD	F1, F2, F0, F1' \
    '	0x0060 00096 (/src/internal/dataset/classes.go:206)	FNMSUBD	F3, F2, F1, F0' \
    '	0x0064 00100 (/src/internal/fmath/pow.go:40)	FMADDD	F1, F2, F0, F1' \
    '	0x0020 00032 (/src/internal/nn/conv.go:88)	FMADDS	F4, F0, F2, F0' \
    '	0x0024 00036 (/src/internal/tensor/matmul.go:31)	FMADDS	F4, F0, F2, F0' \
    '	0x0028 00040 (/src/internal/train/noise.go:87)	FMSUBD	F1, F2, F0, F1' \
    '	0x002c 00044 (/src/internal/metrics/online.go:32)	FMADDD	F2, F3, F0, F0' \
    '	0x0030 00048 (/src/internal/stability/drift.go:84)	FMSUBD	F3, F1, F0, F0' \
    '	0x0034 00052 (/src/internal/lifecycle/lifecycle.go:232)	FMADDD	F2, F1, F0, F0' \
    '	0x0038 00056 (/src/internal/loadgen/arrival.go:129)	FMADDD	F1, F2, F0, F1' \
    '	0x003c 00060 (/src/internal/fleetapi/serve.go:349)	FMADDD	F0, F1, F0, F1'; do
    if printf '%s\n%s\n' "$clean" "$line" | fused >/dev/null; then
      echo "lint_fma selftest: missed$line" >&2
      exit 1
    fi
  done
  echo "lint_fma selftest: ok"
  exit 0
fi

cd "$(dirname "$0")/.."
listing=$(mktemp)
trap 'rm -f "$listing"' EXIT
if ! GOARCH=arm64 go build -gcflags=-S ./internal/imaging ./internal/isp ./internal/codec ./internal/sensor ./internal/device ./internal/dataset ./internal/fmath ./internal/nn ./internal/tensor ./internal/train ./internal/metrics ./internal/stability ./internal/lifecycle ./internal/loadgen ./internal/fleetapi >"$listing" 2>&1; then
  grep -v '^	0x' "$listing" | tail -n 20 >&2
  echo "lint_fma: the arm64 build failed" >&2
  exit 1
fi
if ! fused <"$listing"; then
  echo "lint_fma: the arm64 build fuses the multiply-adds above; round the product, float32(x*y) + z" >&2
  exit 1
fi
echo "lint_fma: no fused multiply-add on the cell or report path of the arm64 build"
