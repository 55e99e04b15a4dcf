// Command paper reproduces the paper's tables and figures, one experiment
// per argument:
//
//	paper [flags] <experiment>...
//
//	endtoend   §4    Figures 3–4: five phones photograph the same screen
//	os         §7    Table 5: byte-identical files, five OS decoders
//	stability  §9.1  Table 6 (+ Figure 7 with -pr): stability training
//
// The measurements are internal/lab functions; this binary renders what
// they return. The base model is loaded (or trained and saved, -model) once
// per process.
//
// The other studies are fleetd specs, not experiments of this binary: the
// codec (§5, Tables 2–3), software-ISP (§6, Table 4) and raw-capture (§9.2,
// Figure 8) stage swaps are the format arms of examples/specs/
// compression.experiment.json, isp.experiment.json and raw.experiment.json
// (per-arm tables at /v1/experiments/{id}/arms), and Figure 9's top-3 rows
// are the top1/topk/topk_accuracy fields of every run's stats.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/dataset"
	"repro/internal/lab"
	"repro/internal/nn"
)

// session is what the experiments of one process share.
type session struct {
	out   io.Writer
	model *nn.Model
	rig   *lab.Rig
	seed  int64
	items int // 0: each experiment's paper-scale default

	pr                            bool
	repeats, repeatItems          int
	trainItems, testItems, epochs int
	alphas                        []float64 // -grid candidates
}

// experiments maps each argument to its report; usage lists them in the
// paper's order.
var experiments = map[string]func(*session){
	"endtoend":  (*session).endtoend,
	"os":        (*session).os,
	"stability": (*session).stability,
}

const usage = "usage: paper [flags] <experiment>...  (endtoend os stability)"

func main() {
	log.SetFlags(0)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, out io.Writer) error {
	s := &session{out: out}
	fs := flag.NewFlagSet("paper", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), usage)
		fs.PrintDefaults()
	}
	fs.IntVar(&s.items, "items", 0, "number of test objects (0 = paper scale: 120, and 150 fixed files for os)")
	fs.Int64Var(&s.seed, "seed", 42, "experiment seed")
	modelPath := fs.String("model", "", "base-model snapshot path (trains if missing)")
	workers := fs.Int("workers", 0, "capture concurrency (0 = GOMAXPROCS); results are identical for any value")
	fs.IntVar(&s.repeats, "repeats", 6, "endtoend: repeat shots per object for the within-phone experiment")
	fs.IntVar(&s.repeatItems, "repeat-items", 30, "endtoend: objects used in the within-phone experiment")
	fs.IntVar(&s.trainItems, "train-items", 100, "stability: objects in the fine-tuning set")
	fs.IntVar(&s.testItems, "test-items", 80, "stability: held-out objects for evaluation")
	fs.IntVar(&s.epochs, "epochs", 2, "stability: fine-tuning epochs per scheme")
	fs.BoolVar(&s.pr, "pr", false, "stability: print Figure 7 precision-recall curves")
	grid := fs.String("grid", "", "stability: comma-separated α candidates; runs the paper's grid search per scheme")
	fs.Parse(args) // exits on a bad flag

	if fs.NArg() == 0 {
		return errors.New(usage)
	}
	for _, f := range []struct {
		name string
		n    int
	}{{"items", s.items}, {"repeats", s.repeats}, {"repeat-items", s.repeatItems}, {"train-items", s.trainItems}, {"test-items", s.testItems}, {"epochs", s.epochs}} {
		if f.n < 0 {
			return fmt.Errorf("-%s %d: a count cannot be negative\n%s", f.name, f.n, usage)
		}
	}
	for _, name := range fs.Args() {
		if experiments[name] == nil {
			return fmt.Errorf("unknown experiment %q\n%s", name, usage)
		}
	}
	if *grid != "" {
		for _, part := range strings.Split(*grid, ",") {
			a, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad -grid value %q: %v", part, err)
			}
			// A NaN α collapses the fine-tune to one class, whose all-wrong
			// groups are never unstable, so it would win the search.
			if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
				return fmt.Errorf("-grid %s: α must be a finite number ≥ 0\n%s", strings.TrimSpace(part), usage)
			}
			s.alphas = append(s.alphas, a)
		}
	}

	var err error
	if s.model, err = lab.LoadOrTrainBaseModel(lab.DefaultBaseModel(), *modelPath, log.Printf); err != nil {
		return err
	}
	s.rig = lab.NewRig(s.seed)
	s.rig.Workers = *workers
	for _, name := range fs.Args() {
		experiments[name](s)
	}
	return nil
}

// objects returns the held-out objects every capture experiment
// photographs.
func (s *session) objects() []*dataset.Item {
	n := s.items
	if n == 0 {
		n = 120
	}
	return dataset.GenerateHard(n, s.seed+100).Items
}
