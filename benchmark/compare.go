package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// resultFile is what the all-workloads mode writes with -out and what
// -compare reads: every run's result object with its detail.
type resultFile struct {
	Schema    string      `json:"schema"`
	GoVersion string      `json:"go_version"`
	Runs      []runRecord `json:"runs"`
}

type runRecord struct {
	Detail detail `json:"detail"`
	Result result `json:"result"`
}

const resultSchema = "pathenum-benchmark/v1"

func readResultFile(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, resultSchema)
	}
	return &f, nil
}

// values collects one metric of one workload over the runs of a file.
func (f *resultFile) values(workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Result.Metrics[name]; ok && r.Detail.Workload == workload && r.Detail.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// noisyRuns counts the untraced runs of a workload that the noise guard
// flagged, and all of them.
func (f *resultFile) noisyRuns(workload string) (noisy, all int) {
	for _, r := range f.Runs {
		if r.Detail.Workload == workload && r.Detail.Trace == 0 {
			all++
			if r.Detail.Noisy {
				noisy++
			}
		}
	}
	return noisy, all
}

// failedFrac is failed over attempted ops of a workload's untraced runs.
func (f *resultFile) failedFrac(workload string) float64 {
	var failed, attempted int
	for _, r := range f.Runs {
		if r.Detail.Workload == workload && r.Detail.Trace == 0 {
			failed += r.Result.Failed
			attempted += r.Result.Attempted
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// verdict applies an end-to-end metric's bound to the medians of two sets
// of runs. A spread (quartile distance over median) wider than the bound on
// either side means the runs cannot resolve a change of that size.
func verdict(d metricDef, old, cur []float64) string {
	if max(spread(old), spread(cur)) > d.Bound {
		return "unresolved"
	}
	mo, mn := median(old), median(cur)
	worse := (mn - mo) / mo // share of the old median by which the metric got worse
	if d.Better == higher {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "same"
}

// compareFiles prints, per workload and metric, how new stands against
// old, and reports whether anything got worse: an end-to-end metric by more
// than its bound, or failed_frac at all.
func compareFiles(oldPath, newPath string, w io.Writer) (bool, error) {
	old, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	anyWorse := false
	for _, s := range specs {
		no, ao := old.noisyRuns(s.name)
		nn, an := cur.noisyRuns(s.name)
		fmt.Fprintf(w, "%s  (runs the noise guard flagged: old %d of %d, new %d of %d)\n", s.name, no, ao, nn, an)
		for _, d := range endToEnd {
			vo, vn := old.values(s.name, 0, d.Name), cur.values(s.name, 0, d.Name)
			if len(vo) == 0 || len(vn) == 0 {
				continue
			}
			v := verdict(d, vo, vn)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "  %-34s %-10s old %14.6g (n=%d spread %.3f)  new %14.6g (n=%d spread %.3f)  new/old %.4f  bound %.2f %s\n",
				d.Name, v, median(vo), len(vo), spread(vo), median(vn), len(vn), spread(vn), median(vn)/median(vo), d.Bound, d.Unit)
		}
		fo, fn := old.failedFrac(s.name), cur.failedFrac(s.name)
		v := "same"
		if fn > fo {
			v, anyWorse = "worse", true
		}
		fmt.Fprintf(w, "  %-34s %-10s old %14.6g  new %14.6g  (any increase is worse)\n", "failed_frac", v, fo, fn)

		for _, d := range perLayer {
			vo, vn := old.values(s.name, 1, d.Name), cur.values(s.name, 1, d.Name)
			if len(vo) == 0 || len(vn) == 0 {
				continue
			}
			if d.Exact {
				fmt.Fprintf(w, "  %-34s %-10s old %14.6g  new %14.6g  %s (count of a fixed query set)\n",
					d.Name, exactVerdict(old, cur, s.name, 1, func(r runRecord) float64 { return r.Result.Metrics[d.Name].Value }), median(vo), median(vn), d.Unit)
				continue
			}
			fmt.Fprintf(w, "  %-34s %-10s old %14.6g  new %14.6g  new/old %.4f %s (no bound)\n", d.Name, "-", median(vo), median(vn), ratio(median(vn), median(vo)), d.Unit)
		}
		if s.kind != kindServe {
			fmt.Fprintf(w, "  %-34s %s\n", "ops_per_pass", exactVerdict(old, cur, s.name, 0, func(r runRecord) float64 { return float64(r.Detail.OpsPerPass) }))
			fmt.Fprintf(w, "  %-34s %s\n", "paths_total", exactVerdict(old, cur, s.name, 0, func(r runRecord) float64 { return float64(r.Detail.PathsTotal) }))
		}
	}
	return anyWorse, nil
}

// exactVerdict compares a count run by run: runs of the same workload,
// trace mode and seed must report the same value.
func exactVerdict(old, cur *resultFile, workload string, trace int, get func(runRecord) float64) string {
	matched := false
	for _, ro := range old.Runs {
		for _, rn := range cur.Runs {
			do, dn := ro.Detail, rn.Detail
			if do.Workload != workload || dn.Workload != workload || do.Trace != trace || dn.Trace != trace || do.Seed != dn.Seed {
				continue
			}
			matched = true
			if get(ro) != get(rn) {
				return "differs"
			}
		}
	}
	if !matched {
		return "no-common-seed"
	}
	return "equal"
}
