package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"pathenum"
	"pathenum/internal/server"
	"pathenum/internal/workload"
)

// sample is one measured op.
type sample struct {
	kind opKind
	// query indexes inputs.queries for in-process ops; script ops carry
	// their own queries in op.
	query int
	op    *op

	ms      float64 // issue to last path or byte drained
	firstMs float64 // issue to first delivered path; 0 when none came
	// cal is the calibration factor both are multiplied by when reported
	// (see calibrator); 1 where nothing is calibrated.
	cal float64
	// counts holds the result count of each query of the op (one, or
	// batchSize for a batch); paths is their sum.
	counts []uint64
	paths  uint64
	bytes  int        // /paths response body size
	batch  batchStats // /batch response stats
	err    error
}

// batchStats is the part of the /batch response stats the benchmark reads.
type batchStats struct {
	Queries        int `json:"queries"`
	BFSPassesNaive int `json:"bfsPassesNaive"`
	BFSPassesSaved int `json:"bfsPassesSaved"`
	BFSPassesRun   int `json:"bfsPassesRun"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// streamOp issues one query through eng.Stream and drains it. When keep is
// non-nil the delivered paths are retained there (streamed paths are fresh
// slices the consumer owns), otherwise they are only counted.
func streamOp(eng server.Engine, q workload.Query, k int, limit uint64, keep *[]pathenum.Path, tr *tracer, opID int64) sample {
	req := pathenum.Request{S: q.S, T: q.T, K: k, Limit: limit}
	var first time.Time
	var n uint64
	var err error
	start := time.Now()
	for p, serr := range eng.Stream(context.Background(), req) {
		if serr != nil {
			err = serr
			break
		}
		if n == 0 {
			first = time.Now()
		}
		n++
		if keep != nil {
			*keep = append(*keep, p)
		}
	}
	end := time.Now()
	sm := sample{ms: ms(end.Sub(start)), paths: n, counts: []uint64{n}, err: err}
	if n > 0 {
		sm.firstMs = ms(first.Sub(start))
	}
	if tr != nil {
		id := tr.add("op.stream", 0, opID, start, end)
		if n > 0 {
			tr.add("first_path", id, opID, start, first)
			tr.add("drain", id, opID, first, end)
		}
	}
	return sm
}

// client is one closed-loop HTTP client with its own keep-alive
// connection.
type client struct {
	hc   *http.Client
	base string
	rd   *bufio.Reader
}

func newClient(base string) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base: base,
		rd:   bufio.NewReaderSize(nil, 64<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

var (
	pathPrefix = []byte(`{"path":[`)
	donePrefix = []byte(`{"done":true`)
)

// do issues one scripted op and reads the response to its end. onPath,
// when non-nil, receives every path of a /paths response (the slice is
// reused between calls).
func (c *client) do(o *op, onPath func([]pathenum.VertexID), tr *tracer, opID int64) sample {
	sm := sample{kind: o.kind, op: o}
	start := time.Now()
	resp, err := c.hc.Post(c.base+opRoutes[o.kind], "application/json", bytes.NewReader(o.body))
	if err != nil {
		sm.err = err
		return sm
	}
	headers := time.Now()
	var first time.Time
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		sm.err = fmt.Errorf("%s: status %d: %s", opRoutes[o.kind], resp.StatusCode, bytes.TrimSpace(body))
	} else {
		first, sm.err = c.read(o.kind, resp.Body, &sm, onPath)
	}
	// Drain before closing so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	end := time.Now()
	sm.ms = ms(end.Sub(start))
	for _, n := range sm.counts {
		sm.paths += n
	}
	if !first.IsZero() {
		sm.firstMs = ms(first.Sub(start))
	}
	if tr != nil {
		id := tr.add("op"+opRoutes[o.kind], 0, opID, start, end)
		tr.add("request", id, opID, start, headers)
		if !first.IsZero() {
			tr.add("first_line", id, opID, headers, first)
			tr.add("drain", id, opID, first, end)
		} else {
			tr.add("drain", id, opID, headers, end)
		}
	}
	return sm
}

// read consumes one 200 response body and fills sm.counts. It returns when
// the first path line arrived (zero for the non-streaming routes).
func (c *client) read(k opKind, body io.Reader, sm *sample, onPath func([]pathenum.VertexID)) (first time.Time, err error) {
	switch k {
	case opQuery:
		var r struct {
			Count uint64 `json:"count"`
		}
		if err := json.NewDecoder(body).Decode(&r); err != nil {
			return first, err
		}
		sm.counts = []uint64{r.Count}
	case opBatch:
		var r struct {
			Results []struct {
				Count uint64 `json:"count"`
				Error string `json:"error"`
			} `json:"results"`
			Stats batchStats `json:"stats"`
		}
		if err := json.NewDecoder(body).Decode(&r); err != nil {
			return first, err
		}
		for _, res := range r.Results {
			if res.Error != "" {
				return first, fmt.Errorf("/batch: %s", res.Error)
			}
			sm.counts = append(sm.counts, res.Count)
		}
		sm.batch = r.Stats
	case opInsert:
		var r struct {
			Applied int `json:"applied"`
			Ignored int `json:"ignored"`
		}
		if err := json.NewDecoder(body).Decode(&r); err != nil {
			return first, err
		}
		if r.Applied+r.Ignored != 1 {
			return first, fmt.Errorf("/insert: applied %d + ignored %d edges, sent 1", r.Applied, r.Ignored)
		}
	case opPaths:
		return c.readPaths(body, sm, onPath)
	}
	return first, nil
}

// readPaths reads an NDJSON /paths response: path lines, then the done
// line whose count must equal the number of path lines.
func (c *client) readPaths(body io.Reader, sm *sample, onPath func([]pathenum.VertexID)) (first time.Time, err error) {
	c.rd.Reset(body)
	var lines uint64
	var buf []pathenum.VertexID
	for {
		line, rerr := c.rd.ReadSlice('\n')
		if rerr != nil {
			return first, fmt.Errorf("/paths: stream ended without a done line: %w", rerr)
		}
		sm.bytes += len(line)
		switch {
		case bytes.HasPrefix(line, pathPrefix):
			if lines == 0 {
				first = time.Now()
			}
			lines++
			if onPath != nil {
				if buf, err = parsePath(buf[:0], line[len(pathPrefix):]); err != nil {
					return first, err
				}
				onPath(buf)
			}
		case bytes.HasPrefix(line, donePrefix):
			var d struct {
				Count uint64 `json:"count"`
			}
			if err := json.Unmarshal(line, &d); err != nil {
				return first, err
			}
			if d.Count != lines {
				return first, fmt.Errorf("/paths: done line counts %d paths, %d were delivered", d.Count, lines)
			}
			sm.counts = []uint64{lines}
			return first, nil
		default:
			return first, fmt.Errorf("/paths: unexpected line %q", line)
		}
	}
}

// parsePath parses the tail of a path line, `1,2,3]}\n`.
func parsePath(dst []pathenum.VertexID, b []byte) ([]pathenum.VertexID, error) {
	end := bytes.IndexByte(b, ']')
	if end < 0 {
		return dst, fmt.Errorf("/paths: malformed path line %q", b)
	}
	for _, f := range bytes.Split(b[:end], []byte{','}) {
		v, err := strconv.ParseInt(string(f), 10, 32)
		if err != nil {
			return dst, fmt.Errorf("/paths: malformed path line %q", b)
		}
		dst = append(dst, pathenum.VertexID(v))
	}
	return dst, nil
}

// get issues one GET and drains it, returning its latency and body size.
func (c *client) get(route string) (float64, int, error) {
	start := time.Now()
	resp, err := c.hc.Get(c.base + route)
	if err != nil {
		return 0, 0, err
	}
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", route, resp.StatusCode)
	}
	return ms(time.Since(start)), int(n), err
}
