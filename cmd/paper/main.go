// Command paper reproduces the paper's tables and figures, one experiment
// per argument:
//
//	paper [flags] <experiment>...
//
//	endtoend   §4    Figures 3–4: five phones photograph the same screen
//	compress   §5    Tables 2–3 (+ Figure 5 with -gallery): codecs
//	isp        §6    Table 4: two software ISPs on the same raw files
//	os         §7    Table 5: byte-identical files, five OS decoders
//	raw        §9.2  Figure 8: native JPEG vs raw + one converter
//	topk       §9.3  Figure 9: the end-to-end run re-scored top-3
//	stability  §9.1  Table 6 (+ Figure 7 with -pr): stability training
//
// The measurements are internal/lab functions; this binary renders what
// they return. The base model is loaded (or trained and saved, -model) once
// per process, and topk re-scores the capture matrix of endtoend when both
// are named.
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
	"repro/internal/stability"
)

// session is what the experiments of one process share.
type session struct {
	out   io.Writer
	model *nn.Model
	rig   *lab.Rig
	seed  int64
	items int // 0: each experiment's paper-scale default

	gallery, pr                   bool
	repeats, repeatItems          int
	trainItems, testItems, epochs int
	alphas                        []float64 // -grid candidates

	endToEnd []*stability.Record // memo of endToEndRecords
}

// experiments maps each argument to its report; usage lists them in the
// paper's order.
var experiments = map[string]func(*session){
	"endtoend":  (*session).endtoend,
	"compress":  (*session).compress,
	"isp":       (*session).isp,
	"os":        (*session).os,
	"raw":       (*session).raw,
	"topk":      (*session).topk,
	"stability": (*session).stability,
}

const usage = "usage: paper [flags] <experiment>...  (endtoend compress isp os raw topk stability)"

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
	fs.BoolVar(&s.gallery, "gallery", false, "compress: print the Figure 5 gallery of format-divergent images")
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

// endToEndRecords captures and classifies the §4 matrix (every object, five
// angles, five phones) once per process; endtoend and topk both read it.
func (s *session) endToEndRecords() []*stability.Record {
	if s.endToEnd == nil {
		angles := []int{0, 1, 2, 3, 4}
		items := s.objects()
		log.Printf("capturing %d objects x %d angles x %d phones...", len(items), len(angles), len(s.rig.Phones))
		s.endToEnd = lab.Classify(s.model, s.rig.CaptureAll(items, angles), 3)
	}
	return s.endToEnd
}
