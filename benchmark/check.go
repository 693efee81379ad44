package main

import (
	"fmt"

	"pathenum"
	"pathenum/internal/baseline"
	"pathenum/internal/workload"
)

// verifyStream checks an in-process workload's outputs. Every measured op
// must have delivered the reference count of its query: on light_large the
// reference is the brute-force path set, which the kept paths must equal;
// elsewhere it is the generic DFS count under the same limit, and
// checkPaths looks at the paths themselves.
func verifyStream(e *env, s spec, in *inputs, passes []pass, kept [][]pathenum.Path, tl *tally) error {
	ref := make([]uint64, len(in.queries))
	var rc refCounter
	for i, q := range in.queries {
		var err error
		if kept != nil {
			ref[i], err = verifyAgainstBrute(e.g0, q, s.k, s.limit, kept[i])
			tl.op(err)
		} else if ref[i], err = rc.count(e.g0, q, s.k, s.limit); err != nil {
			return err
		}
	}
	for _, p := range passes {
		for _, sm := range p.samples {
			if sm.err != nil {
				tl.op(sm.err)
				continue
			}
			tl.op(checkCount(in.queries[sm.query], sm.paths, ref[sm.query]))
		}
	}
	if kept != nil {
		return nil
	}
	return checkPaths(e, s, in, tl)
}

// checkPaths streams the first queries once more, untimed, and checks every
// delivered path. It runs after the write phase, on the graph the engine
// then serves: inserts only add edges, so that is the graph the paths must
// be valid on. shard_cross also compares path sets with a single-image
// engine over the same graph, for results the limit did not cut short
// (two engines may legitimately pick different subsets under a limit).
func checkPaths(e *env, s spec, in *inputs, tl *tally) error {
	g := e.eng.Graph()
	n := min(checkedQueries, len(in.queries))
	var single *pathenum.Engine
	if s.kind == kindShard {
		n = min(setQueries, len(in.queries))
		var err error
		if single, err = pathenum.NewEngine(g, pathenum.EngineConfig{}); err != nil {
			return err
		}
	}
	for i, q := range in.queries[:n] {
		var got []pathenum.Path
		sm := streamOp(e.eng, q, s.k, s.limit, &got, nil, 0)
		if sm.err != nil {
			tl.op(sm.err)
			continue
		}
		if i < checkedQueries {
			tl.op(newPathChecker(g, q, s.k).addAll(got))
		}
		if single != nil && sm.paths < s.limit {
			var want []pathenum.Path
			if sm := streamOp(single, q, s.k, s.limit, &want, nil, 0); sm.err != nil {
				return sm.err
			}
			var err error
			if !baseline.SamePathSet(got, want) {
				err = fmt.Errorf("q(%d,%d): sharded engine delivered %d paths, not the single-image set of %d", q.S, q.T, len(got), len(want))
			}
			tl.op(err)
		}
	}
	return nil
}

// verifyServe checks serve_mixed. The graph only grows while the clients
// run, so every count a measured op reported must lie between the
// reference counts on the initial and on the final graph (both under the
// limit). Then, with the writers gone, every endpoint pair is asked once
// more: /query must report exactly the final count and /paths must deliver
// that many valid, distinct paths on the final graph.
func verifyServe(e *env, s spec, in *inputs, passes []pass, tl *tally) error {
	final := e.eng.Graph()
	var rc refCounter
	bounds := map[workload.Query][2]uint64{}
	boundsOf := func(q workload.Query) ([2]uint64, error) {
		if b, ok := bounds[q]; ok {
			return b, nil
		}
		lo, err := rc.count(e.g0, q, s.k, s.limit)
		if err != nil {
			return [2]uint64{}, err
		}
		hi, err := rc.count(final, q, s.k, s.limit)
		bounds[q] = [2]uint64{lo, hi}
		return bounds[q], err
	}
	var samples []sample
	for _, p := range passes {
		samples = append(samples, p.samples...)
	}
	for _, sm := range samples {
		err := sm.err
		if err == nil && len(sm.counts) != len(sm.op.queries) {
			err = fmt.Errorf("%s: %d results for %d queries", opRoutes[sm.kind], len(sm.counts), len(sm.op.queries))
		}
		for i := 0; err == nil && i < len(sm.counts); i++ {
			q := sm.op.queries[i]
			b, berr := boundsOf(q)
			if berr != nil {
				return berr
			}
			if c := sm.counts[i]; c < b[0] || c > b[1] {
				err = fmt.Errorf("%s q(%d,%d): %d results, outside the reference range [%d, %d]", opRoutes[sm.kind], q.S, q.T, c, b[0], b[1])
			}
		}
		tl.op(err)
	}

	cl := newClient(e.base)
	defer cl.close()
	for _, q := range in.queries {
		b, err := boundsOf(q)
		if err != nil {
			return err
		}
		for _, k := range []opKind{opQuery, opPaths} {
			o := op{kind: k, queries: []workload.Query{q}, body: queryBody(q, s.k, s.limit)}
			chk := newPathChecker(final, q, s.k)
			var perr error
			sm := cl.do(&o, func(p []pathenum.VertexID) {
				if perr == nil {
					perr = chk.add(p)
				}
			}, nil, 0)
			switch {
			case sm.err != nil:
				tl.op(sm.err)
			case perr != nil:
				tl.op(perr)
			default:
				tl.op(checkCount(q, sm.paths, b[1]))
			}
		}
	}
	return nil
}
