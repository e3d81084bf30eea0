// Command tracegen generates synthetic instruction traces in the
// repository's binary trace format, imports real ChampSim traces into
// it, and inspects existing trace files.
//
// Examples:
//
//	tracegen -category srv -seed 7 -n 1000000 -o srv7.trace -gzip
//	tracegen -import 600.perlbench.champsim.gz -o perlbench.trace -gzip
//	tracegen -inspect srv7.trace -head 20
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"

	"entangling"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

func main() {
	var (
		category = flag.String("category", "srv", "workload category: crypto|int|fp|srv|cloud")
		seed     = flag.Uint64("seed", 1, "workload seed")
		n        = flag.Uint64("n", 1_000_000, "instructions to generate")
		out      = flag.String("o", "", "output trace file (required unless -inspect)")
		gz       = flag.Bool("gzip", false, "compress the payload")
		inspect  = flag.String("inspect", "", "trace file to inspect instead of generating")
		head     = flag.Int("head", 10, "records to print when inspecting")
		imp      = flag.String("import", "", "ChampSim trace to convert instead of generating (gzip auto-detected; - for stdin)")
		synth    = flag.Bool("synth-data", false, "with -import: synthesize data addresses for memory-stripped records")
		impMax   = flag.Uint64("import-max", 0, "with -import: reject inputs beyond this many instructions (0 = unlimited)")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectTrace(*inspect, *head); err != nil {
			fatal(err)
		}
		return
	}
	if *out == "" {
		fatal(fmt.Errorf("-o is required (or use -inspect)"))
	}

	// An interrupted write removes its partial output; a second signal
	// kills the process, for a write blocked on its input.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)

	if *imp != "" {
		if err := importChampSim(ctx, *imp, *out, *gz, *synth, *impMax); err != nil {
			fatal(err)
		}
		return
	}

	p := entangling.VaryWorkload(entangling.WorkloadPreset(entangling.Category(*category)), *seed)
	p.Name = fmt.Sprintf("%s-%d", *category, *seed)
	prog, err := workload.BuildProgram(p)
	if err != nil {
		fatal(err)
	}
	count, size, err := writeTrace(ctx, *out, *gz, workload.NewWalker(prog), *n)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %d instructions to %s (%d bytes, %.2f bytes/instr, code footprint %.1f KB)\n",
		count, *out, size, float64(size)/float64(count), float64(prog.FootprintBytes)/1024)
}

// importChampSim converts a ChampSim trace into ENTRACE1, streaming
// record by record so arbitrarily large inputs convert in constant
// memory.
func importChampSim(ctx context.Context, src, out string, gz, synthData bool, maxInstrs uint64) error {
	var in io.Reader = os.Stdin
	if src != "-" {
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	cr, err := trace.NewChampSimReader(in, trace.ChampSimOptions{
		SynthesizeData: synthData,
		Limits:         trace.Limits{MaxInstrs: maxInstrs},
	})
	if err != nil {
		return err
	}
	count, size, err := writeTrace(ctx, out, gz, cr, math.MaxUint64)
	if err != nil {
		return err
	}
	fmt.Printf("imported %d instructions from %s to %s (%d bytes, %.2f bytes/instr)\n",
		count, src, out, size, float64(size)/float64(count))
	return nil
}

// pollEvery is how many records writeTrace writes between two looks
// at its context.
const pollEvery = 1 << 16

// writeTrace writes src's first n records to path as ENTRACE1 and
// returns their number and the file's size. It removes the file when
// it fails, when src fails or holds no records, and when ctx is
// canceled: the format stores no record count, so a trace cut at a
// record boundary would read as a complete, shorter one.
func writeTrace(ctx context.Context, path string, gz bool, src trace.Source, n uint64) (count uint64, size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			if rerr := os.Remove(path); rerr != nil {
				err = fmt.Errorf("%w; partial output left behind: %v", err, rerr)
			} else {
				err = fmt.Errorf("%w (removed partial %s)", err, path)
			}
		}
	}()
	w, err := trace.NewWriter(f, gz)
	if err != nil {
		return 0, 0, err
	}
	count, err = trace.Copy(func(in *trace.Instruction) error {
		if w.Count()%pollEvery == 0 && ctx.Err() != nil {
			return fmt.Errorf("interrupted after %d instructions: %w", w.Count(), ctx.Err())
		}
		return w.Write(in)
	}, src, n)
	if err == nil {
		err = w.Close()
	}
	if err == nil && count == 0 {
		err = errors.New("no instructions to write")
	}
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if err == nil {
		err = f.Close()
	}
	return count, size, err
}

func inspectTrace(path string, head int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var in trace.Instruction
	var count, branches, taken, loads, stores uint64
	lines := map[uint64]struct{}{}
	for r.Next(&in) {
		if count < uint64(head) {
			fmt.Println(trace.Describe(&in))
		}
		count++
		if in.Branch.IsBranch() {
			branches++
			if in.Taken {
				taken++
			}
		}
		if in.IsLoad {
			loads++
		}
		if in.IsStore {
			stores++
		}
		lines[in.PC>>6] = struct{}{}
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Printf("---\n%d instructions, %d branches (%.1f%% taken), %d loads, %d stores, %d code lines (%.1f KB)\n",
		count, branches, 100*float64(taken)/float64(max(branches, 1)), loads, stores,
		len(lines), float64(len(lines))*64/1024)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
