package core

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// collectPaths runs fn with an Emit that materializes every path as a
// string, returning the sorted set.
func collectPaths(t *testing.T, run func(Options) (*Result, error)) []string {
	t.Helper()
	var out []string
	res, err := run(Options{Emit: func(p []graph.VertexID) bool {
		var sb strings.Builder
		for i, v := range p {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(itoa(int(v)))
		}
		out = append(out, sb.String())
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run must complete")
	}
	sort.Strings(out)
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRunSharedMatchesRun: executing with a shared frontier on either (or
// both) sides must emit exactly the path set of the per-query pipeline,
// even though frontier labels are a relaxation (full-graph BFS, larger
// bound) of the per-query ones. This is the correctness contract the
// engine's frontier cache rests on.
func TestRunSharedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	ctx := context.Background()
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(40)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		k := 2 + rng.Intn(4)
		q := Query{S: s, T: tt, K: k}
		bound := k + rng.Intn(3) // frontiers may be built to a larger bound

		fwd, err := NewForwardFrontier(g, s, bound, nil, PredicateNone)
		if err != nil {
			t.Fatal(err)
		}
		bwd, err := NewBackwardFrontier(g, tt, bound, nil, PredicateNone)
		if err != nil {
			t.Fatal(err)
		}

		sess := NewSession(g, nil)
		want := collectPaths(t, func(o Options) (*Result, error) { return Run(g, q, o) })
		for name, pair := range map[string][2]*Frontier{
			"fwd":  {fwd, nil},
			"bwd":  {nil, bwd},
			"both": {fwd, bwd},
		} {
			got := collectPaths(t, func(o Options) (*Result, error) {
				return sess.RunShared(ctx, q, o, pair[0], pair[1])
			})
			if !equalStrings(want, got) {
				t.Fatalf("trial %d %v (%s): shared paths %v != per-query %v", trial, q, name, got, want)
			}
		}
	}
}

// TestRunSharedPredicate: a predicate-constrained query must agree with the
// per-query pipeline when the shared frontier was built under the same
// predicate.
func TestRunSharedPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		n := 12 + rng.Intn(30)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		s := graph.VertexID(rng.Intn(n))
		tt := graph.VertexID(rng.Intn(n))
		if s == tt {
			continue
		}
		q := Query{S: s, T: tt, K: 3 + rng.Intn(3)}
		// Drop edges whose endpoint sum is divisible by 5: deterministic,
		// stateless, safe for concurrent calls.
		pred := func(from, to graph.VertexID) bool { return (int(from)+int(to))%5 != 0 }

		fwd, err := NewForwardFrontier(g, s, q.K, pred, 7)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(g, nil)
		want := collectPaths(t, func(o Options) (*Result, error) {
			o.Predicate = pred
			return Run(g, q, o)
		})
		got := collectPaths(t, func(o Options) (*Result, error) {
			o.Predicate = pred
			o.PredicateToken = 7
			return sess.RunShared(ctx, q, o, fwd, nil)
		})
		if !equalStrings(want, got) {
			t.Fatalf("trial %d %v: predicate shared paths %v != per-query %v", trial, q, got, want)
		}
	}
}

// TestFrontierValidation: mismatched frontiers must be rejected, not
// silently produce wrong indexes.
func TestFrontierValidation(t *testing.T) {
	g := gen.BarabasiAlbert(20, 2, 1)
	other := gen.BarabasiAlbert(20, 2, 2)
	ctx := context.Background()
	sess := NewSession(g, nil)
	q := Query{S: 0, T: 5, K: 4}

	fwd, err := NewForwardFrontier(g, 0, 4, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := NewBackwardFrontier(g, 5, 4, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		fwd, bwd *Frontier
		q        Query
	}{
		{"wrong origin fwd", mustFwd(t, g, 1, 4), nil, q},
		{"wrong origin bwd", nil, mustBwd(t, g, 6, 4), q},
		{"direction swap", bwd, nil, q},
		{"bound too small", mustFwd(t, g, 0, 2), nil, q},
		{"wrong graph", mustFwd(t, other, 0, 4), nil, q},
	}
	for _, tc := range cases {
		if _, err := sess.RunShared(ctx, tc.q, Options{}, tc.fwd, tc.bwd); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Predicate identity is declared by token (see PredicateToken):
	// frontier built with a predicate but query without, the reverse,
	// distinct tokens, and an opaque (token-less) predicate are all
	// rejected; only the matching token is accepted.
	predA := func(from, to graph.VertexID) bool { return from < to }
	predB := func(from, to graph.VertexID) bool { return from > to }
	fwdPred, err := NewForwardFrontier(g, 0, 4, predA, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewForwardFrontier(g, 0, 4, predA, PredicateNone); err == nil {
		t.Error("opaque predicate (no token) frontier construction: expected error")
	}
	if _, err := NewForwardFrontier(g, 0, 4, nil, 3); err == nil {
		t.Error("token without predicate: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{}, fwdPred, nil); err == nil {
		t.Error("frontier predicate vs nil query predicate: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predA, PredicateToken: 1}, fwd, nil); err == nil {
		t.Error("nil frontier predicate vs query predicate: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predB, PredicateToken: 2}, fwdPred, nil); err == nil {
		t.Error("different predicate tokens: expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predA}, fwdPred, nil); err == nil {
		t.Error("opaque query predicate (no token): expected error")
	}
	if _, err := sess.RunShared(ctx, q, Options{Predicate: predA, PredicateToken: 1}, fwdPred, nil); err != nil {
		t.Fatalf("matching predicate token rejected: %v", err)
	}
	// Sanity: the matching pair is accepted.
	if _, err := sess.RunShared(ctx, q, Options{}, fwd, bwd); err != nil {
		t.Fatalf("valid frontiers rejected: %v", err)
	}

	if _, err := NewForwardFrontier(g, -1, 4, nil, PredicateNone); err == nil {
		t.Error("negative origin: expected error")
	}
	if _, err := NewBackwardFrontier(g, 0, 0, nil, PredicateNone); err == nil {
		t.Error("zero bound: expected error")
	}
}

func mustFwd(t *testing.T, g *graph.Graph, s graph.VertexID, bound int) *Frontier {
	t.Helper()
	f, err := NewForwardFrontier(g, s, bound, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustBwd(t *testing.T, g *graph.Graph, v graph.VertexID, bound int) *Frontier {
	t.Helper()
	f, err := NewBackwardFrontier(g, v, bound, nil, PredicateNone)
	if err != nil {
		t.Fatal(err)
	}
	return f
}
