package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialsel/internal/geom"
)

// sample is one HTTP request as the client saw it.
type sample struct {
	label   string
	kind    string
	status  int // 0 on a transport error
	sent    time.Time
	latency time.Duration
}

func (s sample) ok() bool { return s.status >= 200 && s.status < 300 }

// spanReport mirrors the EXPLAIN ANALYZE span tree sdbd returns with
// ?analyze=1.
type spanReport struct {
	Name          string         `json:"name"`
	ElapsedMicros int64          `json:"elapsed_micros"`
	Attrs         map[string]any `json:"attrs"`
	Children      []*spanReport  `json:"children"`
}

type queryResponse struct {
	Rows      [][]int     `json:"rows"`
	TotalRows int         `json:"total_rows"`
	Analyze   *spanReport `json:"analyze"`
}

// phase is one timed stretch of the closed-loop mix.
type phase struct {
	traced  bool
	start   time.Time
	elapsed time.Duration
	samples []sample      // every request sent
	spans   []*spanReport // the analyze tree of every traced query
	ops     int           // logical operations that reached an outcome
	failed  int           // of those, the ones that did not succeed
}

// checks collects correctness failures from every client.
type checks struct {
	mu       sync.Mutex
	failures []string
	ghMaxErr float64 // largest GH estimate error against the reference
}

func (c *checks) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

func (c *checks) ghError(est float64, ref int) {
	e := abs(est-float64(ref)) / float64(ref)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ghMaxErr = max(c.ghMaxErr, e)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// loadgen sends the workload's requests to one sdbd and checks the answers.
type loadgen struct {
	w      *workload
	ref    reference
	hc     *http.Client
	base   string
	chk    *checks
	live   *liveModel  // ingest-live only
	next   []func() op // per read client, persists across phases
	writer *rand.Rand
}

func newLoadgen(w *workload, seed int64, ref reference, base string, chk *checks, live *liveModel) *loadgen {
	d := &loadgen{w: w, ref: ref, base: base, chk: chk, live: live,
		hc:     &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		writer: rand.New(rand.NewSource(seed*7919 + 1000))}
	for i := 0; i < w.readers; i++ {
		d.next = append(d.next, w.sequence(seed, i))
	}
	return d
}

// result is one response: its status, body and Retry-After.
type result struct {
	sample
	body       []byte
	retryAfter time.Duration
	acked      int64 // ingest-live: batches acknowledged before the request
}

func (d *loadgen) send(o op, traced bool) result {
	path := o.path
	if traced && o.kind == "query" {
		path += "?analyze=1"
	}
	r := result{sample: sample{label: o.label, kind: o.kind}}
	if d.live != nil {
		r.acked = d.live.acked.Load()
	}
	start := time.Now()
	r.sent = start
	resp, err := d.hc.Post(d.base+path, "application/json", bytes.NewReader(o.body))
	if err != nil {
		r.latency = time.Since(start)
		return r
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(start)
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s > 0 {
		r.retryAfter = time.Duration(s) * time.Second
	}
	return r
}

// client is one closed-loop caller: it sends its next request only after the
// previous reply, as a planner or application server calling sdbd would.
type client struct {
	d        *loadgen
	p        *phase
	mu       *sync.Mutex // guards p
	deadline time.Time
}

// do runs one logical operation: it resends after a 503 once the server's
// Retry-After has passed, and reports false when that wait would cross the
// deadline, ending the client's phase. Every request sent is a sample.
func (c *client) do(o op, check func(result) bool) bool {
	for {
		r := c.d.send(o, c.p.traced)
		c.mu.Lock()
		c.p.samples = append(c.p.samples, r.sample)
		c.mu.Unlock()
		if r.status == http.StatusServiceUnavailable && r.retryAfter > 0 {
			if time.Now().Add(r.retryAfter).After(c.deadline) {
				return false
			}
			time.Sleep(r.retryAfter)
			continue
		}
		good := r.ok() && check(r)
		c.mu.Lock()
		c.p.ops++
		if !good {
			c.p.failed++
		}
		c.mu.Unlock()
		if !r.ok() {
			c.d.chk.fail("%s: status %d: %.200s", o.label, r.status, r.body)
			if r.status == 0 && o.kind == "batch" {
				c.d.live.lost++ // the batch may or may not have been applied
			}
		}
		return true
	}
}

// runPhase drives every client until the deadline; a request in flight at
// the deadline completes and counts.
func (d *loadgen) runPhase(seconds int, traced bool) *phase {
	p := &phase{traced: traced, start: time.Now()}
	var mu sync.Mutex
	deadline := p.start.Add(time.Duration(seconds) * time.Second)
	var wg sync.WaitGroup
	for i := 0; i < d.w.readers; i++ {
		c := &client{d: d, p: p, mu: &mu, deadline: deadline}
		next := d.next[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !c.do(next(), c.checkRead) {
					return
				}
			}
		}()
	}
	if d.w.writer {
		c := &client{d: d, p: p, mu: &mu, deadline: deadline}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if !c.batch() {
					return
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	return p
}

// warm sends each read operation w.warm times in turn, plus the writer's
// first batches, before any clock starts. The answers are checked too.
func (d *loadgen) warm() {
	p := &phase{}
	c := &client{d: d, p: p, mu: &sync.Mutex{}, deadline: time.Now().Add(time.Hour)}
	ops := d.w.ops()
	for _, label := range []string{"q2", "q3", "est2", "est3", "explain"} {
		o, ok := ops[label]
		for i := 0; ok && i < d.w.warm; i++ {
			c.do(o, c.checkRead)
		}
	}
	for i := 0; d.w.writer && i < d.w.warm; i++ {
		c.batch()
	}
}

// checkRead checks one read answer against the reference. On ingest-live
// the reference moves with every batch, so query answers are logged with the
// batches acknowledged before the request and sent before the reply, and
// checked once the run is over.
func (c *client) checkRead(r result) bool {
	want := c.d.ref.rows(r.label)
	switch r.kind {
	case "query":
		var q queryResponse
		if err := json.Unmarshal(r.body, &q); err != nil {
			c.d.chk.fail("%s: decode: %v", r.label, err)
			return false
		}
		if c.p.traced && q.Analyze != nil {
			c.mu.Lock()
			c.p.spans = append(c.p.spans, q.Analyze)
			c.mu.Unlock()
		}
		if len(q.Rows) != min(100, q.TotalRows) {
			c.d.chk.fail("%s: %d rows on the page for total_rows %d", r.label, len(q.Rows), q.TotalRows)
			return false
		}
		if c.d.live != nil {
			c.d.live.logRead(r.acked, q.TotalRows)
			return true
		}
		if q.TotalRows != want {
			c.d.chk.fail("%s: total_rows %d, reference %d", r.label, q.TotalRows, want)
			return false
		}
	case "estimate":
		var e struct {
			PairCount float64 `json:"pair_count"`
		}
		if err := json.Unmarshal(r.body, &e); err != nil || !(e.PairCount > 0) {
			c.d.chk.fail("%s: bad estimate %.200s", r.label, r.body)
			return false
		}
		if c.d.live == nil && want > 0 {
			c.d.chk.ghError(e.PairCount, want)
		}
	case "explain":
		var e struct {
			Plan    string  `json:"plan"`
			EstRows float64 `json:"est_rows"`
		}
		if err := json.Unmarshal(r.body, &e); err != nil || e.Plan == "" || !(e.EstRows > 0) {
			c.d.chk.fail("%s: bad plan %.200s", r.label, r.body)
			return false
		}
	}
	return true
}

// liveModel is the benchmark's own copy of the live table: its item slots by
// ID and every acknowledged batch in order.
type liveModel struct {
	extent  geom.Rect   // the live table's raw extent
	probe   []geom.Rect // the probe table, normalised
	items   []geom.Rect // raw coordinates, by ID
	batches []ackedBatch
	pending []int // IDs the server returned and the writer has not deleted
	reads   []liveRead
	readMu  sync.Mutex
	sent    atomic.Int64 // batches posted
	acked   atomic.Int64 // batches acknowledged
	lost    int          // batches whose outcome is unknown (transport error)
}

type ackedBatch struct {
	Insert [][4]float64 `json:"insert"`
	Delete []int        `json:"delete"`
	IDs    []int        `json:"ids"`
}

// liveRead is a live⋈probe answer with the window of model states it may
// reflect: after lo batches at the earliest, after hi at the latest.
type liveRead struct {
	lo, hi int64
	rows   int
}

func (m *liveModel) logRead(lo int64, rows int) {
	hi := m.sent.Load()
	m.readMu.Lock()
	defer m.readMu.Unlock()
	m.reads = append(m.reads, liveRead{lo: lo, hi: hi, rows: rows})
}

// batch posts one fixed-shape batch: batchInserts new rectangles and the
// oldest batchDeletes IDs the server returned (none before the first
// acknowledgement).
func (c *client) batch() bool {
	m := c.d.live
	req := ackedBatch{Insert: insertRects(c.d.writer)}
	if len(m.pending) >= batchDeletes {
		req.Delete = append([]int(nil), m.pending[:batchDeletes]...)
	}
	o := op{label: "batch", kind: "batch", path: "/v1/tables/live/batch", body: mustJSON(map[string]any{
		"insert": req.Insert, "delete": req.Delete})}
	m.sent.Add(1)
	return c.do(o, func(r result) bool {
		var resp struct {
			IDs []int `json:"ids"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.IDs) != len(req.Insert) {
			m.lost++
			c.d.chk.fail("batch: bad acknowledgement %.200s", r.body)
			return false
		}
		for i, id := range resp.IDs {
			if id != len(m.items)+i {
				c.d.chk.fail("batch: id %d, want %d", id, len(m.items)+i)
				return false
			}
		}
		req.IDs = resp.IDs
		for _, r := range req.Insert {
			m.items = append(m.items, geom.NewRect(r[0], r[1], r[2], r[3]))
		}
		m.pending = append(m.pending[len(req.Delete):], resp.IDs...)
		m.batches = append(m.batches, req)
		m.acked.Add(1)
		return true
	})
}
