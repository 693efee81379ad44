package core

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"pathenum/internal/automaton"
	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// weightOf assigns a deterministic pseudo-weight to an edge so tests can
// share the same function between the engine and the oracle.
func weightOf(u, v graph.VertexID) float64 {
	return float64((int(u)*31+int(v)*17)%5) + 1 // 1..5
}

// labelOf assigns a deterministic label in [0, numLabels).
func labelOf(numLabels int) func(u, v graph.VertexID) automaton.Label {
	return func(u, v graph.VertexID) automaton.Label {
		return automaton.Label((int(u)*7 + int(v)*13) % numLabels)
	}
}

func constrainedPaths(t *testing.T, g *graph.Graph, q Query, cons Constraints) [][]graph.VertexID {
	t.Helper()
	var out [][]graph.VertexID
	res, err := RunConstrained(g, q, cons, RunControl{Emit: func(p []graph.VertexID) bool {
		out = append(out, append([]graph.VertexID(nil), p...))
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("constrained run must complete")
	}
	return out
}

func TestPredicateConstraint(t *testing.T) {
	g := paperGraph(t)
	q := paperQuery()
	// Forbid the edge (v0, t): kills the length-2 path and one length-4.
	pred := func(u, v graph.VertexID) bool { return !(u == vV0 && v == vT) }
	got := constrainedPaths(t, g, q, Constraints{Predicate: pred})
	want := 0
	for _, p := range brutePathsLocal(g, q.S, q.T, q.K) {
		ok := true
		for i := 0; i+1 < len(p); i++ {
			if !pred(p[i], p[i+1]) {
				ok = false
				break
			}
		}
		if ok {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("predicate run found %d paths, oracle %d", len(got), want)
	}
	for _, p := range got {
		for i := 0; i+1 < len(p); i++ {
			if !pred(p[i], p[i+1]) {
				t.Fatalf("path %v uses forbidden edge", p)
			}
		}
	}
}

func TestPredicateConstraintRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5150))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*4, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		q := Query{S: s, T: tt, K: 2 + rng.Intn(3)}
		// Keep edges whose endpoint sum is not divisible by 3.
		pred := func(u, v graph.VertexID) bool { return (u+v)%3 != 0 }
		got := constrainedPaths(t, g, q, Constraints{Predicate: pred})
		var want [][]graph.VertexID
		for _, p := range brutePathsLocal(g, s, tt, q.K) {
			ok := true
			for i := 0; i+1 < len(p); i++ {
				if !pred(p[i], p[i+1]) {
					ok = false
					break
				}
			}
			if ok {
				want = append(want, p)
			}
		}
		if !samePaths(got, want) {
			t.Fatalf("trial %d: predicate run %d paths, oracle %d", trial, len(got), len(want))
		}
	}
}

func TestAccumulativeConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(6001))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*4, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		q := Query{S: s, T: tt, K: 2 + rng.Intn(3)}
		threshold := 6.0
		acc := &Accumulator{
			Value:    weightOf,
			Combine:  func(a, b float64) float64 { return a + b },
			Identity: 0,
			Accept:   func(total float64) bool { return total >= threshold },
		}
		got := constrainedPaths(t, g, q, Constraints{Accumulate: acc})
		var want [][]graph.VertexID
		for _, p := range brutePathsLocal(g, s, tt, q.K) {
			total := 0.0
			for i := 0; i+1 < len(p); i++ {
				total += weightOf(p[i], p[i+1])
			}
			if total >= threshold {
				want = append(want, p)
			}
		}
		if !samePaths(got, want) {
			t.Fatalf("trial %d: accumulative run %d paths, oracle %d", trial, len(got), len(want))
		}
	}
}

// TestAccumulativePruning: with nonnegative weights and a below-threshold
// constraint, monotone pruning must not change results.
func TestAccumulativePruning(t *testing.T) {
	g := gen.BarabasiAlbert(50, 4, 9)
	q := Query{S: 0, T: 1, K: 4}
	limit := 9.0
	mk := func(prune func(float64, int) bool) *Accumulator {
		return &Accumulator{
			Value:    weightOf,
			Combine:  func(a, b float64) float64 { return a + b },
			Identity: 0,
			Accept:   func(total float64) bool { return total <= limit },
			Prune:    prune,
		}
	}
	plain := constrainedPaths(t, g, q, Constraints{Accumulate: mk(nil)})
	pruned := constrainedPaths(t, g, q, Constraints{Accumulate: mk(
		func(partial float64, _ int) bool { return partial > limit },
	)})
	if !samePaths(plain, pruned) {
		t.Fatalf("pruning changed results: %d vs %d", len(plain), len(pruned))
	}
}

func TestSequenceConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	const numLabels = 3
	lbl := labelOf(numLabels)
	for trial := 0; trial < 20; trial++ {
		n := 6 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*4, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		q := Query{S: s, T: tt, K: 2 + rng.Intn(3)}
		dfa, err := automaton.AtLeastCount(numLabels, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := constrainedPaths(t, g, q, Constraints{Sequence: &SequenceConstraint{
			Automaton: dfa,
			Label:     lbl,
		}})
		var want [][]graph.VertexID
		for _, p := range brutePathsLocal(g, s, tt, q.K) {
			var seq []automaton.Label
			for i := 0; i+1 < len(p); i++ {
				seq = append(seq, lbl(p[i], p[i+1]))
			}
			if dfa.Accepts(seq) {
				want = append(want, p)
			}
		}
		if !samePaths(got, want) {
			t.Fatalf("trial %d: sequence run %d paths, oracle %d", trial, len(got), len(want))
		}
	}
}

func TestSequenceExactPattern(t *testing.T) {
	// Line graph 0->1->2->3 with labels 0,1,2 in order; only the full
	// sequence 0,1,2 is accepted.
	g, err := graph.NewGraph(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}})
	if err != nil {
		t.Fatal(err)
	}
	lbl := func(u, v graph.VertexID) automaton.Label { return automaton.Label(u) }
	dfa, err := automaton.ExactSequence(3, []automaton.Label{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	got := constrainedPaths(t, g, Query{S: 0, T: 3, K: 5}, Constraints{Sequence: &SequenceConstraint{
		Automaton: dfa, Label: lbl,
	}})
	if len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("got %v, want the single labeled path", got)
	}
	// A shorter hop constraint cannot reach t at all.
	got = constrainedPaths(t, g, Query{S: 0, T: 3, K: 2}, Constraints{Sequence: &SequenceConstraint{
		Automaton: dfa, Label: lbl,
	}})
	if len(got) != 0 {
		t.Fatalf("k=2: got %v, want none", got)
	}
}

func TestCombinedConstraints(t *testing.T) {
	g := gen.BarabasiAlbert(60, 4, 77)
	q := Query{S: 0, T: 2, K: 4}
	const numLabels = 2
	lbl := labelOf(numLabels)
	dfa, err := automaton.AtLeastCount(numLabels, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := func(u, v graph.VertexID) bool { return (u+2*v)%5 != 0 }
	acc := &Accumulator{
		Value:    weightOf,
		Combine:  func(a, b float64) float64 { return a + b },
		Identity: 0,
		Accept:   func(total float64) bool { return total >= 4 },
	}
	got := constrainedPaths(t, g, q, Constraints{
		Predicate:  pred,
		Accumulate: acc,
		Sequence:   &SequenceConstraint{Automaton: dfa, Label: lbl},
	})
	var want [][]graph.VertexID
	for _, p := range brutePathsLocal(g, q.S, q.T, q.K) {
		ok := true
		total := 0.0
		var seq []automaton.Label
		for i := 0; i+1 < len(p); i++ {
			if !pred(p[i], p[i+1]) {
				ok = false
				break
			}
			total += weightOf(p[i], p[i+1])
			seq = append(seq, lbl(p[i], p[i+1]))
		}
		if ok && total >= 4 && dfa.Accepts(seq) {
			want = append(want, p)
		}
	}
	if !samePaths(got, want) {
		t.Fatalf("combined run %d paths, oracle %d", len(got), len(want))
	}
}

func TestConstraintsValidation(t *testing.T) {
	g := paperGraph(t)
	q := paperQuery()
	if _, err := RunConstrained(g, q, Constraints{Accumulate: &Accumulator{}}, RunControl{}); err == nil {
		t.Error("incomplete accumulator: expected error")
	}
	if _, err := RunConstrained(g, q, Constraints{Sequence: &SequenceConstraint{}}, RunControl{}); err == nil {
		t.Error("incomplete sequence constraint: expected error")
	}
	if _, err := RunConstrained(g, Query{S: 0, T: 0, K: 2}, Constraints{}, RunControl{}); err == nil {
		t.Error("invalid query: expected error")
	}
}

func TestConstrainedNoConstraintsEqualsPlain(t *testing.T) {
	g := paperGraph(t)
	got := constrainedPaths(t, g, paperQuery(), Constraints{})
	want := brutePathsLocal(g, vS, vT, 4)
	if !samePaths(got, want) {
		t.Fatalf("unconstrained RunConstrained differs: %d vs %d", len(got), len(want))
	}
}

func TestConstrainedLimit(t *testing.T) {
	g := gen.Layered(4, 3)
	res, err := RunConstrained(g, Query{S: 0, T: 1, K: 4}, Constraints{}, RunControl{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.Counters.Results != 3 {
		t.Fatalf("limit: completed=%v results=%d", res.Completed, res.Counters.Results)
	}
}

func TestRunWithPredicateOption(t *testing.T) {
	// Options.Predicate must filter both enumeration methods identically.
	g := gen.BarabasiAlbert(80, 4, 13)
	q := Query{S: 0, T: 1, K: 4}
	pred := func(u, v graph.VertexID) bool { return (u+v)%4 != 0 }
	var counts []uint64
	for _, m := range []Method{MethodDFS, MethodJoin} {
		res, err := Run(g, q, Options{Method: m, Predicate: pred})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Counters.Results)
	}
	if counts[0] != counts[1] {
		t.Fatalf("methods disagree under predicate: %v", counts)
	}
	want := 0
	for _, p := range brutePathsLocal(g, q.S, q.T, q.K) {
		ok := true
		for i := 0; i+1 < len(p); i++ {
			if !pred(p[i], p[i+1]) {
				ok = false
				break
			}
		}
		if ok {
			want++
		}
	}
	if counts[0] != uint64(want) {
		t.Fatalf("predicate Run found %d, oracle %d", counts[0], want)
	}
}

// evalPathConstraints replays cons over a complete path — the whole-tuple
// post-filter that join-based constrained evaluation would need (see the
// RunConstrained note).
func evalPathConstraints(cons Constraints, p []graph.VertexID) bool {
	var acc float64
	if a := cons.Accumulate; a != nil {
		acc = a.Identity
	}
	var state automaton.State
	if s := cons.Sequence; s != nil {
		state = s.Automaton.Start()
	}
	for i := 0; i+1 < len(p); i++ {
		from, to := p[i], p[i+1]
		if a := cons.Accumulate; a != nil {
			acc = a.Combine(acc, a.Value(from, to))
		}
		if s := cons.Sequence; s != nil {
			state = s.Automaton.Step(state, s.Label(from, to))
			if state == automaton.Invalid {
				return false
			}
		}
	}
	if a := cons.Accumulate; a != nil && !a.Accept(acc) {
		return false
	}
	if s := cons.Sequence; s != nil && !s.Automaton.Accepting(state) {
		return false
	}
	return true
}

// TestConstraintsJoinPostFilterEquivalence is the regression test behind
// the RunConstrained note: per-tuple validation under the streaming
// constrained pipeline (a session stream with StreamConfig.Constraints)
// must yield exactly the
// same result set as whole-tuple post-filtering over the streaming join,
// for predicate + accumulative + label-sequence constraints, across every
// cut position and both build sides.
func TestConstraintsJoinPostFilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	trials := 0
	for trials < 30 {
		n := 6 + rng.Intn(10)
		g := gen.ErdosRenyi(n, n*4, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		trials++
		k := 2 + rng.Intn(3)
		q := Query{S: s, T: tt, K: k}
		pred := func(from, to graph.VertexID) bool { return (int(from)+int(to))%7 != 0 }
		dfa, err := automaton.AtLeastCount(2, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		cons := Constraints{
			Predicate: pred,
			Accumulate: &Accumulator{
				Value:    func(from, to graph.VertexID) float64 { return float64((int(from) + 2*int(to)) % 4) },
				Combine:  func(a, b float64) float64 { return a + b },
				Identity: 0,
				Accept:   func(total float64) bool { return int(total)%2 == 0 },
			},
			Sequence: &SequenceConstraint{
				Automaton: dfa,
				Label:     func(from, to graph.VertexID) automaton.Label { return automaton.Label((int(from) + int(to)) % 2) },
			},
		}

		// Per-tuple validation, streamed (the shipping pipeline).
		want := streamPaths(t, NewSession(g, nil).StreamWith(context.Background(), q, Options{Predicate: pred}, StreamConfig{Constraints: &cons}))

		// Whole-tuple post-filter over the streaming join on the
		// predicate-filtered index.
		ix, err := BuildIndexFiltered(g, q, pred)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < k; cut++ {
			for _, side := range []BuildSide{BuildLeft, BuildRight} {
				var got []string
				done, err := EnumerateJoinSide(ix, cut, side, RunControl{Emit: func(p []graph.VertexID) bool {
					if evalPathConstraints(cons, p) {
						got = append(got, pathKey(p))
					}
					return true
				}}, nil, nil)
				if err != nil || !done {
					t.Fatalf("trial %d cut %d side %v: done=%v err=%v", trials, cut, side, done, err)
				}
				sort.Strings(got)
				if len(got) != len(want) {
					t.Fatalf("trial %d cut %d side %v: post-filtered join %d paths, constrained DFS %d (q=%v)",
						trials, cut, side, len(got), len(want), q)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d cut %d side %v: path %d: join %q, DFS %q (q=%v)",
							trials, cut, side, i, got[i], want[i], q)
					}
				}
			}
		}
	}
}
