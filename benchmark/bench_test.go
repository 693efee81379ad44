package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pathenum"
	"pathenum/internal/workload"
)

// fingerprint renders everything a seed generates for a workload: the
// query set, the new edges and the first ops of every client's script.
func fingerprint(t *testing.T, s spec, seed int64) string {
	t.Helper()
	g, err := s.buildGraph()
	if err != nil {
		t.Fatal(err)
	}
	in, err := makeInputs(s, g, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprint(&b, in.queries, in.edges)
	if s.kind == kindServe {
		for c := 0; c < s.clients; c++ {
			sc := newScript(s, g, in.queries, seed, c)
			for i := 0; i < 200; i++ {
				o := sc.next(false)
				fmt.Fprintf(&b, "%s %s\n", opRoutes[o.kind], o.body)
			}
		}
	}
	return b.String()
}

func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		s = s.smoke()
		a, b, c := fingerprint(t, s, 42), fingerprint(t, s, 42), fingerprint(t, s, 43)
		if a != b {
			t.Errorf("%s: the same seed generated different inputs", s.name)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", s.name)
		}
	}
}

func TestScriptMix(t *testing.T) {
	s, err := findSpec("serve_mixed")
	if err != nil {
		t.Fatal(err)
	}
	s = s.smoke()
	g, _ := s.buildGraph()
	in, err := makeInputs(s, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := newScript(s, g, in.queries, 1, 0)
	var n [numOpKinds]int
	for i := 0; i < 4000; i++ {
		o := sc.next(false)
		n[o.kind]++
		if o.kind == opBatch && len(o.queries) != batchSize {
			t.Fatalf("batch of %d queries, want %d", len(o.queries), batchSize)
		}
	}
	for k, want := range [numOpKinds]float64{0.60, 0.25, 0.10, 0.05} {
		if got := float64(n[k]) / 4000; math.Abs(got-want) > 0.03 {
			t.Errorf("%s: share %.3f, want about %.2f", opRoutes[k], got, want)
		}
	}
	ro := newScript(s, g, in.queries, 1, 0)
	for i := 0; i < 500; i++ {
		if o := ro.next(true); o.kind == opInsert {
			t.Fatal("a read-only script produced an insert")
		}
	}
}

func TestPercentileRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must not rely on order
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 500}, {99, 990}, {100, 1000}, {0, 1}, {99.9, 999},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 1000 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of four values = %v, want the lower middle, 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The expected values are Python's: statistics.quantiles(range(1, 11), n=4)
// is [2.75, 5.5, 8.25] and statistics.quantiles([1, 2], n=4) is
// [0.75, 1.5, 2.25].
// A window of bulk work is scaled by the copy probe exactly when the
// workload has a reference for it, and by reference over median probe.
func TestBulkWindowProbe(t *testing.T) {
	g, err := pathenum.NewGraph(3, []pathenum.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, copyRef := range []float64{0, 3} {
		c := newCalibrator(g, 2, copyRef)
		mark, probe, factor := c.bulk()
		probe()
		probe()
		used, other, ref := c.probes, c.copies, 2.0
		if copyRef > 0 {
			used, other, ref = c.copies, c.probes, copyRef
		}
		if mark != 0 || len(used) != 2 || len(other) != 0 {
			t.Fatalf("copy reference %g: mark %d, %d and %d probes", copyRef, mark, len(used), len(other))
		}
		if got, want := factor(mark), ref/median(used); got != want {
			t.Errorf("copy reference %g: factor %g, want %g", copyRef, got, want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	if got, want := spread([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got, want := spread([]float64{1, 2}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread(1, 2) = %v, want %v", got, want)
	}
	if got := spread([]float64{7}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestVerifierRejectsWrongOutputs(t *testing.T) {
	// 0 -> 1 -> 3, 0 -> 2 -> 3, 0 -> 3, plus 1 -> 2.
	g, err := pathenum.NewGraph(4, []pathenum.Edge{{From: 0, To: 1}, {From: 1, To: 3}, {From: 0, To: 2}, {From: 2, To: 3}, {From: 0, To: 3}, {From: 1, To: 2}})
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Query{S: 0, T: 3}
	good := []pathenum.Path{{0, 1, 3}, {0, 2, 3}, {0, 3}, {0, 1, 2, 3}}
	if err := newPathChecker(g, q, 3).addAll(good); err != nil {
		t.Fatalf("the correct path set was rejected: %v", err)
	}
	if n, err := verifyAgainstBrute(g, q, 3, 0, good); err != nil || n != 4 {
		t.Fatalf("the correct path set against brute force: %d, %v", n, err)
	}
	for name, bad := range map[string][]pathenum.Path{
		"missing edge":    {{0, 1, 3}, {0, 2, 1, 3}},
		"wrong target":    {{0, 1, 2}},
		"wrong source":    {{1, 3}},
		"repeated vertex": {{0, 1, 0, 3}},
		"too many hops":   {{0, 1, 2, 3}, {0, 1, 2, 3, 3}},
		"duplicate":       {{0, 1, 3}, {0, 3}, {0, 1, 3}},
	} {
		if err := newPathChecker(g, q, 3).addAll(bad); err == nil {
			t.Errorf("%s: %v was accepted", name, bad)
		}
	}
	// A duplicated path keeps the count right and must still be caught
	// against the brute-force set, as must a corrupted and a missing one.
	for name, bad := range map[string][]pathenum.Path{
		"duplicate": {{0, 1, 3}, {0, 2, 3}, {0, 3}, {0, 3}},
		"corrupted": {{0, 1, 3}, {0, 2, 3}, {0, 3}, {0, 2, 1, 3}},
		"missing":   {{0, 1, 3}, {0, 2, 3}, {0, 3}},
	} {
		if _, err := verifyAgainstBrute(g, q, 3, 0, bad); err == nil {
			t.Errorf("%s path set passed the brute-force comparison", name)
		}
	}
	// Under a limit the result is a subset: limit distinct valid paths.
	if n, err := verifyAgainstBrute(g, q, 3, 2, good[:2]); err != nil || n != 2 {
		t.Errorf("a valid result under limit 2: %d, %v", n, err)
	}
	if _, err := verifyAgainstBrute(g, q, 3, 2, good[:1]); err == nil {
		t.Error("one path under limit 2 of a 4-path query was accepted")
	}
	var rc refCounter
	n, err := rc.count(g, q, 3, 0)
	if err != nil || n != 4 {
		t.Fatalf("reference count = %d, %v, want 4", n, err)
	}
	if err := checkCount(q, 4, n); err != nil {
		t.Errorf("the right count was rejected: %v", err)
	}
	if checkCount(q, 3, n) == nil || checkCount(q, 5, n) == nil {
		t.Error("an off-by-one count was accepted")
	}
}

func TestVerdict(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v, v, v} }
	lat := metricDef{Name: "latency", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "rate", Better: higher, Bound: 0.10}
	for _, c := range []struct {
		d        metricDef
		old, cur []float64
		want     string
	}{
		{lat, flat(10), flat(11.5), "worse"},
		{lat, flat(10), flat(10.5), "same"},
		{lat, flat(10), flat(8.5), "better"},
		{thr, flat(100), flat(85), "worse"},
		{thr, flat(100), flat(95), "same"},
		{thr, flat(100), flat(115), "better"},
		{lat, []float64{8, 10, 12, 14}, flat(20), "unresolved"},
		{lat, []float64{10}, []float64{12}, "worse"}, // single runs have no spread
	} {
		if got := verdict(c.d, c.old, c.cur); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.d.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestSmoke runs all four workloads, untraced and traced, at about 1/20 of
// their size and checks what the contract asks of a run.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var files [2]resultFile
	for _, s := range specs {
		res, det, err := runUntraced(s.smoke(), 42, 0.3, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		checkRun(t, s.name, res, det, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.Name, res.Metrics[d.Name].Value)
			}
		}
		files[0].Runs = append(files[0].Runs, runRecord{det, res})

		out := filepath.Join(dir, s.name+".jsonl")
		res, det, err = runTraced(s.smoke(), 42, out, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", s.name, err)
		}
		checkRun(t, s.name+" traced", res, det, perLayer)
		files[0].Runs = append(files[0].Runs, runRecord{det, res})
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var sp span
		if err := json.Unmarshal(b[:bytes.IndexByte(b, '\n')], &sp); err != nil || sp.Name == "" || sp.End < sp.Start {
			t.Errorf("%s: first span line %q: %v", s.name, b[:bytes.IndexByte(b, '\n')], err)
		}
	}

	// -compare on the file against itself: nothing is worse, counts agree.
	files[0].Schema = resultSchema
	path := filepath.Join(dir, "results.json")
	b, _ := json.Marshal(files[0])
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	worse, err := compareFiles(path, path, &report)
	if err != nil || worse {
		t.Fatalf("comparing a file with itself: worse=%v err=%v", worse, err)
	}
	for _, bad := range []string{"worse", "differs", "unresolved", "no-common-seed"} {
		if strings.Contains(report.String(), " "+bad+" ") {
			t.Errorf("comparing a file with itself reports %q:\n%s", bad, report.String())
		}
	}
}

func checkRun(t *testing.T, name string, res result, det detail, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", name, res.Correct, res.Attempted, res.Failed, det.Failures)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", name, d.Name, m, ok, d.Unit)
		}
	}
}

// TestManifest holds BENCHMARK.json to the benchmark contract's limits and
// to what this package would print with -manifest.
func TestManifest(t *testing.T) {
	m := buildManifest()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(m.Workloads))
	}
	for _, w := range m.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why has %d characters, want one line of at most 200", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) < 1 || len(m.EndToEnd) > 16 || len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(m.EndToEnd), len(m.PerLayer))
	}
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v, want in (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
	}
	if d, ok := findMetric(m.EndToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != lower {
		t.Errorf("setup_s = %+v, want unit s, better lower", d)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if os.IsNotExist(err) {
		t.Skip("no ../BENCHMARK.json beside this directory")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(b))
	}
	var committed, want any
	if err := json.Unmarshal(b, &committed); err != nil {
		t.Fatal(err)
	}
	wb, _ := json.Marshal(m)
	if err := json.Unmarshal(wb, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, want) {
		t.Error("BENCHMARK.json differs from `go run . -manifest`; regenerate it")
	}
}
