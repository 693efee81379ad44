// Command benchmark is the repository's benchmark: four workloads, eight
// end-to-end metrics with regression bounds, and a per-layer ladder trace.
// README.md in this directory says what every name means and how to run,
// trace and compare.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	out      string
	runs     int
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 42, "seed of the generated queries, scripts and edges")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long an untraced run measures")
	flag.IntVar(&o.trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics (all workloads: both)")
	flag.StringVar(&o.traceOut, "trace-out", "", "span file of a traced run, JSON Lines (default .bench_build/trace-WORKLOAD-seedN.jsonl)")
	flag.StringVar(&o.out, "out", "", "all workloads: also write every run's result to this JSON file, the input of -compare")
	flag.IntVar(&o.runs, "runs", 1, "all workloads: repeat with seeds seed..seed+runs-1 and report medians and spreads")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload to about 1/20 (what the package tests run)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	manifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	var err error
	switch {
	case *manifest:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(buildManifest())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files, old.json new.json")
			break
		}
		var worse bool
		if worse, err = compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout); err == nil && worse {
			err = fmt.Errorf("%s is worse than %s", flag.Arg(1), flag.Arg(0))
		}
	case o.trace != 0 && o.trace != 1:
		err = fmt.Errorf("-trace takes 0 or 1")
	case o.workload != "":
		err = runOne(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// detailPrefix marks the line a single-workload run prints just before its
// result object, for the all-workloads parent to pick up.
const detailPrefix = "#detail "

// runOne runs one workload in this process, so that its set-up time and
// its memory high-water mark are its own. The last line of its standard
// output is the contract's result object.
func runOne(o options) error {
	s, err := findSpec(o.workload)
	if err != nil {
		return err
	}
	if o.smoke {
		s = s.smoke()
	}
	var res result
	var det detail
	if o.trace == 1 {
		if o.traceOut == "" {
			o.traceOut = fmt.Sprintf(".bench_build/trace-%s-seed%d.jsonl", s.name, o.seed)
		}
		res, det, err = runTraced(s, o.seed, o.traceOut, os.Stdout)
	} else {
		res, det, err = runUntraced(s, o.seed, o.seconds, os.Stdout)
	}
	if err != nil {
		return err
	}
	d, err := json.Marshal(det)
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n%s\n", detailPrefix, d, r)
	return err
}

// runAll runs every workload in a child process of its own — untraced,
// and with -trace 1 traced as well — then prints each metric's median (and
// spread, given several runs) and writes the result file.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("pathenum benchmark  GOMAXPROCS %d  %s  seeds %d..%d  %g s per untraced run\n",
		runtime.GOMAXPROCS(0), runtime.Version(), o.seed, o.seed+int64(o.runs)-1, o.seconds)
	file := resultFile{Schema: resultSchema, GoVersion: runtime.Version()}
	for r := 0; r < o.runs; r++ {
		for _, s := range specs {
			for trace := 0; trace <= o.trace; trace++ {
				args := []string{"-workload", s.name, "-seed", strconv.FormatInt(o.seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
				if o.smoke {
					args = append(args, "-smoke")
				}
				rec, err := runChild(exe, args)
				if err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				file.Runs = append(file.Runs, rec)
			}
		}
	}

	fmt.Printf("\nsummary: median over %d run(s); spread = quartile distance / median\n", o.runs)
	failed := false
	for _, s := range specs {
		fmt.Printf("%s\n", s.name)
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if vs := file.values(s.name, trace, d.Name); len(vs) > 0 {
					fmt.Printf("  %-34s %16.6g %-6s spread %.4f\n", d.Name, median(vs), d.Unit, spread(vs))
				}
			}
		}
		ff := file.failedFrac(s.name)
		fmt.Printf("  %-34s %16.6g\n", "failed_frac", ff)
		failed = failed || ff > 0
	}
	for _, r := range file.Runs {
		if !r.Result.Correct {
			failed = true
		}
		if r.Detail.Noisy {
			fmt.Printf("noisy: %s seed %d trace %d: graph scan went from %.1f to %.1f Medges/s\n",
				r.Detail.Workload, r.Detail.Seed, r.Detail.Trace, r.Detail.ScanBefore, r.Detail.ScanAfter)
		}
	}
	if o.out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("some ops failed or an output did not verify")
	}
	return nil
}

// runChild runs one single-workload child to its end, passing its report
// through, and parses the two lines it ends with.
func runChild(exe string, args []string) (runRecord, error) {
	var rec runRecord
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(&buf, os.Stdout)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rec, err
	}
	var last, detailLine string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			detailLine = rest
		}
		last = sc.Text()
	}
	if err := sc.Err(); err != nil {
		return rec, err
	}
	if err := json.Unmarshal([]byte(detailLine), &rec.Detail); err != nil {
		return rec, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}
