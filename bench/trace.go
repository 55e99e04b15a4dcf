package main

import (
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/fleet"
	"repro/internal/imaging"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/sensor"
	"repro/internal/stability"
	"repro/internal/train"
)

// Spans are named <layer>.<call>. The bench layer is the benchmark's own
// glue (pass, device, cell and request spans): it parents the others and its
// self time is left out of every budget.
const benchLayer = "bench"

func layerOf(spanName string) string {
	layer, _, _ := strings.Cut(spanName, ".")
	return layer
}

// layerSelfTimes sums, per layer, each span's self time: its duration minus
// what its child spans cover.
func layerSelfTimes(spans []obs.Span) map[string]time.Duration {
	children := map[string]time.Duration{}
	for _, sp := range spans {
		if sp.Parent != "" {
			children[sp.Parent] += sp.Duration()
		}
	}
	self := map[string]time.Duration{}
	for _, sp := range spans {
		if l := layerOf(sp.Name); l != benchLayer {
			self[l] += max(0, sp.Duration()-children[sp.ID])
		}
	}
	return self
}

// tracing opens spans of the run's one trace; with a nil tracer every span
// is a no-op, which is how the untraced walk runs the same code.
type tracing struct {
	t     *obs.Tracer
	trace string
}

func (tr tracing) start(parent *obs.Active, name string, qualifiers ...string) *obs.Active {
	return tr.t.Start(tr.trace, parent.SpanID(), name, qualifiers...)
}

// walkCells is the traced pass of a batch workload: it walks the run's
// device x item x angle list on one goroutine through the same public calls
// a fleet.Runner makes, with a span around each. It draws its own cell
// seeds, so its bytes differ from the runner's; its costs do not.
func walkCells(tr tracing, cfg fleet.Config, factory fleet.BackendFactory) time.Duration {
	t0 := time.Now()
	cfg = cfg.WithDefaults()
	pass := tr.start(nil, "bench.pass")
	gen := fleet.NewGenerator(cfg.Seed, cfg.Scale, 0)
	engine := fleet.NewEngine(cfg.Seed, cfg.Scale, 0)
	sp := tr.start(pass, "dataset.items")
	items := fleet.Items(cfg.Seed, cfg.Items)
	sp.End()
	acc, cohortAcc := stability.NewAccumulator(), stability.NewAccumulator()
	backends := map[string]nn.Backend{}
	raw := new(sensor.RawImage)
	for id := 0; id < cfg.Devices; id++ {
		q := strconv.Itoa(id)
		dev := tr.start(pass, "bench.device", q)
		sp = tr.start(dev, "fleet.device_synth", q)
		d := gen.Device(id)
		sp.End()
		rt := cfg.Runtime
		if rt == "" {
			rt = d.Profile.RuntimeName()
		}
		if backends[rt] == nil {
			sp = tr.start(dev, "nn.compile", q)
			backends[rt] = factory(rt)
			sp.End()
		}
		var images []*imaging.Image
		var records []*stability.Record
		for _, it := range items {
			for _, a := range cfg.Angles {
				cq := q + "/" + strconv.Itoa(it.ID) + "/" + strconv.Itoa(a)
				cl := tr.start(dev, "bench.cell", cq)
				sp = tr.start(cl, "dataset.display", cq)
				displayed := engine.Displayed(it, a)
				sp.End()
				rng := rand.New(rand.NewSource(cfg.Seed ^ int64(id)<<32 ^ int64(it.ID)<<8 ^ int64(a)))
				sp = tr.start(cl, "sensor.capture", cq)
				raw = d.Sensor.CaptureInto(raw, displayed, rng)
				sp.End()
				sp = tr.start(cl, "isp.process", cq)
				processed := d.ISP.Process(raw)
				sp.End()
				sp = tr.start(cl, "codec.encode", cq)
				enc := d.Profile.Codec.Encode(processed.Clamp())
				sp.End()
				imaging.PutImage(processed)
				sp = tr.start(cl, "codec.decode", cq)
				img := enc.DecodeInto(d.Profile.Decode, imaging.GetImage(enc.W, enc.H))
				codec.Release(enc)
				sp.End()
				cl.End()
				images = append(images, img)
				records = append(records, &stability.Record{
					ItemID: it.ID, Angle: a, TrueClass: int(it.Class), Env: d.Profile.Name, Runtime: rt,
				})
			}
		}
		backend := backends[rt]
		for lo := 0; lo < len(images); lo += cfg.BatchSize {
			batch := images[lo:min(lo+cfg.BatchSize, len(images))]
			if in := backend.InputSize(); batch[0].W != in {
				sp = tr.start(dev, "imaging.resize", q, strconv.Itoa(lo))
				resized := make([]*imaging.Image, len(batch))
				for i, im := range batch {
					resized[i] = imaging.Resize(im, in, in)
				}
				batch = resized
				sp.End()
			}
			sp = tr.start(dev, "imaging.batch_tensor", q, strconv.Itoa(lo))
			x := imaging.BatchTensor(batch)
			sp.End()
			sp = tr.start(dev, "nn.infer", q, strconv.Itoa(lo))
			probs := backend.Infer(x)
			sp.End()
			sp = tr.start(dev, "train.topk", q, strconv.Itoa(lo))
			classes := backend.NumClasses()
			rows := make([][]float64, len(batch))
			for i := range batch {
				rows[i] = probs[i*classes : (i+1)*classes]
			}
			for i, topk := range train.TopKOf(rows, cfg.TopK) {
				rec := records[lo+i]
				rec.Pred, rec.Score, rec.TopK = topk[0], rows[i][topk[0]], topk
			}
			sp.End()
		}
		for _, img := range images {
			imaging.PutImage(img)
		}
		// A runner files each record twice: fleet-wide and under its cohort.
		sp = tr.start(dev, "stability.add", q)
		acc.AddAll(records)
		cohortAcc.AddAll(records)
		sp.End()
		dev.End()
	}
	sp = tr.start(pass, "stability.snapshot")
	acc.Snapshot()
	cohortAcc.Snapshot()
	sp.End()
	pass.End()
	return time.Since(t0)
}
