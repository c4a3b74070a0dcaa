package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"spatialsel/internal/dataset"
	"spatialsel/internal/geom"
	"spatialsel/internal/sweep"
)

// ghGate is the accuracy bar for maintained statistics: after recovery the
// live table's GH estimate must stay within 5% of the exact join, the same
// gate benchrun applies under churn.
const ghGate = 0.05

// bench is one run of one workload.
type bench struct {
	o       *options
	w       *workload
	ref     reference
	runDir  string
	dataDir string
	tables  int // preloaded tables
	live    *liveModel
	chk     *checks

	setups    []float64 // seconds per launch
	attempted int
	failed    int
}

func (b *bench) walDir(i int) string {
	if !b.w.writer {
		return ""
	}
	return filepath.Join(b.runDir, "wal", strconv.Itoa(i))
}

// measure runs the setups, the warm-up and the measured phases, and returns
// every metric of the run.
func (b *bench) measure() ([]metric, error) {
	var srv *sdbd
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < b.w.setups; i++ {
		if srv != nil {
			srv.stop()
		}
		var took time.Duration
		var err error
		srv, took, err = startSDBD(b.o.sdbd, b.dataDir, b.walDir(i), filepath.Join(b.runDir, fmt.Sprintf("sdbd-%d.log", i)), b.tables)
		if err != nil {
			return nil, err
		}
		b.setups = append(b.setups, took.Seconds())
	}

	d := newLoadgen(b.w, b.o.seed, b.ref, srv.base, b.chk, b.live)
	d.warm()

	untraced := d.runPhase(b.o.seconds, false)
	if err := b.writeSamples("samples-untraced.csv", untraced); err != nil {
		return nil, err
	}
	phases := []*phase{untraced}
	var traced *phase
	var before, after counters
	var cpu float64
	if b.o.trace {
		var err error
		if before, err = scrape(d.hc, srv.base); err != nil {
			return nil, err
		}
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		traced = d.runPhase(b.o.seconds, true)
		phases = append(phases, traced)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		cpu = cpu1 - cpu0
		if after, err = scrape(d.hc, srv.base); err != nil {
			return nil, err
		}
		if err := b.writeSpans(traced.spans); err != nil {
			return nil, err
		}
		if err := b.writeSamples("samples-traced.csv", traced); err != nil {
			return nil, err
		}
	}
	rssKB, err := srv.procStatusKB("VmHWM")
	if err != nil {
		return nil, err
	}
	for _, p := range phases {
		b.attempted += p.ops
		b.failed += p.failed
	}

	var recovered *recovery
	if b.live != nil {
		srv.kill()
		srv = nil
		if recovered, err = b.durability(); err != nil {
			return nil, err
		}
	}

	ms := b.endToEnd(untraced, rssKB, recovered)
	if !b.o.trace {
		return ms, nil
	}
	for i := range ms {
		ms[i].Gated = false
	}
	layers, err := b.runLayers()
	if err != nil {
		return nil, err
	}
	return append(ms, b.perLayer(untraced, traced, after.delta(before), cpu, layers)...), nil
}

// endToEnd derives the metrics a client sees from the untraced phase. Only
// those that every workload yields and that hold still from run to run on a
// shared 2-vCPU host are gated: there serve-small's goodput and p90s swung
// up to 2x between runs while its medians moved under 15%. The rest are
// reported beside them.
func (b *bench) endToEnd(p *phase, rssKB float64, rec *recovery) []metric {
	var sent, refused int
	for _, s := range p.samples {
		sent++
		if !s.ok() {
			refused++
		}
	}
	lat := func(kind string, q float64) func([]sample, float64) float64 {
		return func(ss []sample, _ float64) float64 { return pct(latenciesMS(ss, kind), q) }
	}
	goodput := func(ss []sample, secs float64) float64 { return float64(len(latenciesMS(ss, "query"))) / secs }
	windowed := func(name, unit, kind string, stat func([]sample, float64) float64, gated bool) metric {
		v, windows, n := p.windowed(kind, stat)
		note := "whole phase"
		if windows > 1 {
			note = fmt.Sprintf("median over %d windows", windows)
		}
		return metric{Name: name, Value: v, Unit: unit, N: n, Gated: gated, Note: note}
	}
	q := latenciesMS(p.samples, "query")
	bt := latenciesMS(p.samples, "batch")
	secs := p.elapsed.Seconds()
	ms := []metric{
		{Name: "setup_s", Value: median(b.setups), Unit: "s", N: len(b.setups), Gated: true, Note: "median over launches"},
		windowed("query_goodput_qps", "1/s", "query", goodput, false),
		windowed("query_p50_ms", "ms", "query", lat("query", 0.50), true),
		windowed("query_p90_ms", "ms", "query", lat("query", 0.90), false),
		windowed("estimate_p50_ms", "ms", "estimate", lat("estimate", 0.50), true),
		windowed("estimate_p90_ms", "ms", "estimate", lat("estimate", 0.90), false),
		{Name: "server_peak_rss_mb", Value: rssKB / 1024, Unit: "MB", Gated: true},
		{Name: "error_rate", Value: float64(refused) / float64(max(sent, 1)), Unit: "ratio", N: sent,
			Note: "failed or refused requests over requests sent, all endpoints"},
	}
	if len(q) >= 1000 {
		ms = append(ms, metric{Name: "query_p99_ms", Value: pct(q, 0.99), Unit: "ms", N: len(q), Note: "whole phase"})
	}
	if b.live == nil {
		ms = append(ms, metric{Name: "gh_rel_error", Value: b.chk.ghMaxErr, Unit: "ratio",
			Note: "largest |GH estimate - reference| / reference"})
	} else {
		// Every batch of a measured phase has the full shape.
		ms = append(ms,
			metric{Name: "ingest_records_per_s", Value: float64(len(bt)*(batchInserts+batchDeletes)) / secs, Unit: "1/s", N: len(bt)},
			metric{Name: "batch_p50_ms", Value: pct(bt, 0.50), Unit: "ms", N: len(bt), Note: "whole phase"},
			metric{Name: "batch_p90_ms", Value: pct(bt, 0.90), Unit: "ms", N: len(bt), Note: "whole phase"},
			metric{Name: "batch_p99_ms", Value: pct(bt, 0.99), Unit: "ms", N: len(bt), Note: "whole phase"},
		)
		if rec != nil {
			ms = append(ms, metric{Name: "gh_rel_error", Value: rec.ghErr, Unit: "ratio",
				Note: "live-probe GH estimate after WAL recovery"})
		}
	}
	return ms
}

// latenciesMS returns the latencies of the successful requests of a kind.
func latenciesMS(ss []sample, kind string) []float64 {
	var xs []float64
	for _, s := range ss {
		if s.kind == kind && s.ok() {
			xs = append(xs, float64(s.latency.Nanoseconds())/1e6)
		}
	}
	return xs
}

// Windowing of the goodput and latency metrics: the phase is cut into equal
// windows by send time, the statistic is taken per window and the median
// across windows is reported, so a stall from outside the program that covers
// less than half the phase does not move it. Each window holds minPerWindow
// successful requests of the kind on average; a phase too short for two
// windows is one window.
const (
	maxWindows   = 10
	minPerWindow = 100
)

// windowed applies stat (given a window's samples and its length in seconds)
// to each window and returns the median, the window count and the samples
// of the kind behind it.
func (p *phase) windowed(kind string, stat func([]sample, float64) float64) (float64, int, int) {
	n := len(latenciesMS(p.samples, kind))
	w := max(1, min(maxWindows, n/minPerWindow))
	length := p.elapsed / time.Duration(w)
	parts := make([][]sample, w)
	for _, s := range p.samples {
		i := min(int(s.sent.Sub(p.start)/length), w-1)
		parts[i] = append(parts[i], s)
	}
	vals := make([]float64, w)
	for i, part := range parts {
		vals[i] = stat(part, length.Seconds())
	}
	return median(vals), w, n
}

// pct is the nearest-rank percentile of xs (sorted in place).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	return pct(append([]float64(nil), xs...), 0.5)
}

// perLayer derives the per-layer metrics: counters from the traced phase's
// /metrics delta, spans from its EXPLAIN ANALYZE trees, and the in-process
// timings of the layers program.
func (b *bench) perLayer(untraced, traced *phase, c counters, cpu float64, layers map[string]float64) []metric {
	var queries, reads, completed int
	for _, s := range traced.samples {
		if s.kind == "query" {
			queries++
		}
		if s.kind != "batch" {
			reads++
		}
		if s.ok() {
			completed++
		}
	}
	// The paper's Est. Time against query time, from untraced latencies:
	// the pairwise estimate against the 2-way query it prices.
	var estLat, qLat []float64
	for _, s := range untraced.samples {
		if s.ok() && s.label == "est2" {
			estLat = append(estLat, float64(s.latency.Nanoseconds()))
		} else if s.ok() && s.label == "q2" {
			qLat = append(qLat, float64(s.latency.Nanoseconds()))
		}
	}
	sum := func(name string) float64 { // every series of a metric, any labels
		t := 0.0
		for k, v := range c {
			if k == name || strings.HasPrefix(k, name+"{") {
				t += v
			}
		}
		return t
	}
	batches := c["sdbd_ingest_batches_total"]
	queryRoute := `{route="POST /v1/query"}`
	cacheHits, cacheMisses := c["sdbd_estimate_cache_hits_total"], c["sdbd_estimate_cache_misses_total"]
	pairs := c["rtree_packed_output_pairs_total"] + c["rtree_join_output_pairs_total"]
	joins := c["rtree_packed_joins_total"] + c["rtree_joins_total"]
	sp := spanStats(traced.spans)

	lm := func(name, unit string, v float64, n int) metric {
		return metric{Name: name, Value: v, Unit: unit, N: n, Gated: true}
	}
	return []metric{
		lm("server.cpu_ms_per_op", "ms", ratio(cpu*1000, float64(completed)), completed),
		lm("server.handler_ms_per_query", "ms", ratio(c["sdbd_request_duration_seconds_sum"+queryRoute]*1000,
			c["sdbd_request_duration_seconds_count"+queryRoute]), int(c["sdbd_request_duration_seconds_count"+queryRoute])),
		lm("server.encode_us", "us", layers["server.encode_us"], 0),
		lm("server.cache_hit_ratio", "ratio", ratio(cacheHits, cacheHits+cacheMisses), int(cacheHits+cacheMisses)),
		lm("resilience.admit_us", "us", layers["resilience.admit_us"], 0),
		lm("resilience.shed_ratio", "ratio", ratio(c["sdbd_admission_shed_total"], float64(queries)), queries),
		lm("resilience.degraded_ratio", "ratio", ratio(c["sdbd_admission_degraded_total"], c["sdbd_admission_admitted_total"]),
			int(c["sdbd_admission_admitted_total"])),
		lm("sdb.plan_us", "us", median(sp.plan)*1000, len(sp.plan)),
		lm("sdb.join_self_ms", "ms", median(sp.joinSelf), len(sp.joinSelf)),
		lm("sdb.probe_ms", "ms", median(sp.probe), len(sp.probe)),
		lm("sdb.rows_per_query", "count", ratio(c["sdb_exec_rows_total"], c["sdb_exec_queries_total"]), int(c["sdb_exec_queries_total"])),
		lm("sdb.probe_rows_per_query", "count", ratio(c["sdb_exec_probe_rows_total"], c["sdb_exec_queries_total"]), int(c["sdb_exec_queries_total"])),
		lm("rtree.join_kernel_ms", "ms", median(sp.kernel), len(sp.kernel)),
		lm("rtree.leaf_compares_per_pair", "ratio", ratio(c["rtree_packed_leaf_compares_total"]+c["rtree_join_leaf_compares_total"], pairs), int(pairs)),
		lm("rtree.node_visits_per_join", "count", ratio(c["rtree_packed_node_visits_total"]+c["rtree_join_node_visits_total"], joins), int(joins)),
		lm("rtree.pack_ms_per_batch", "ms", ratio(c["rtree_packed_build_seconds_total"]*1000, batches), int(batches)),
		lm("rtree.packs_per_batch", "ratio", ratio(c["sdbd_packed_publishes_total"], batches), int(batches)),
		lm("rtree.clone_ms", "ms", layers["rtree.clone_ms"], 0),
		lm("histogram.gh_estimates_per_request", "ratio", ratio(c[`histogram_estimates_total{technique="gh"}`], float64(reads)), reads),
		lm("histogram.gh_estimate_us", "us", layers["histogram.gh_estimate_us"], 0),
		lm("histogram.est_to_query_ratio", "ratio", ratio(median(estLat), median(qLat)), len(estLat)),
		lm("ingest.fsync_ms_per_batch", "ms", ratio(c["sdbd_ingest_wal_fsync_seconds_sum"]*1000, batches), int(batches)),
		lm("ingest.fsyncs_per_batch", "ratio", ratio(c["sdbd_ingest_wal_fsync_seconds_count"], batches), int(batches)),
		lm("ingest.apply_ms", "ms", layers["ingest.apply_ms"], 0),
		lm("ingest.wal_ms", "ms", layers["ingest.wal_ms"], 0),
		lm("ingest.publish_ms", "ms", layers["ingest.publish_ms"], 0),
		lm("ingest.repacks", "count", sum("sdbd_ingest_repacks_total"), 0),
		lm("ingest.repack_s", "s", sum("sdbd_ingest_repack_seconds_total"), 0),
		lm("telemetry.scrapes", "count", sum("sdbd_telemetry_scrapes_total"), 0),
		lm("trace.overhead_ratio", "ratio", ratio(meanQueryMS(traced), meanQueryMS(untraced)), 0),
	}
}

func meanQueryMS(p *phase) float64 {
	var t float64
	var n int
	for _, s := range p.samples {
		if s.kind == "query" && s.ok() {
			t += float64(s.latency.Nanoseconds()) / 1e6
			n++
		}
	}
	return ratio(t, float64(n))
}

// spans gathers per-query stage times (ms) from EXPLAIN ANALYZE trees: the
// plan span, each join's kernel child (rtree.*), the join's self time
// without it (filters and row materialisation), and each probe span.
type spans struct {
	plan, kernel, joinSelf, probe []float64
}

func spanStats(trees []*spanReport) spans {
	var s spans
	ms := func(r *spanReport) float64 { return float64(r.ElapsedMicros) / 1000 }
	var walk func(r *spanReport)
	walk = func(r *spanReport) {
		switch {
		case r.Name == "plan":
			s.plan = append(s.plan, ms(r))
		case strings.HasPrefix(r.Name, "join "):
			self := ms(r)
			for _, c := range r.Children {
				self -= ms(c)
				if strings.HasPrefix(c.Name, "rtree.") {
					s.kernel = append(s.kernel, ms(c))
				}
			}
			s.joinSelf = append(s.joinSelf, max(self, 0))
		case strings.HasPrefix(r.Name, "probe "):
			s.probe = append(s.probe, ms(r))
		}
		for _, c := range r.Children {
			walk(c)
		}
	}
	for _, t := range trees {
		walk(t)
	}
	return s
}

// writeSpans writes the traced phase's span trees, kept in memory while it
// ran, as one JSON line per query.
func (b *bench) writeSpans(trees []*spanReport) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, t := range trees {
		if err := enc.Encode(t); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(b.runDir, "spans.jsonl"), buf.Bytes(), 0o644)
}

// writeSamples writes every request of a phase, kept in memory while it
// ran: when it was sent (ms into the phase), what it was and how it ended.
func (b *bench) writeSamples(name string, p *phase) error {
	var buf bytes.Buffer
	buf.WriteString("sent_ms,label,status,latency_ms\n")
	for _, s := range p.samples {
		fmt.Fprintf(&buf, "%.3f,%s,%d,%.3f\n", float64(s.sent.Sub(p.start).Microseconds())/1000,
			s.label, s.status, float64(s.latency.Microseconds())/1000)
	}
	return os.WriteFile(filepath.Join(b.runDir, name), buf.Bytes(), 0o644)
}

// runLayers times the layers' public functions in process on the run's
// tables, replaying the acknowledged batches on ingest-live.
func (b *bench) runLayers() (map[string]float64, error) {
	args := []string{"-data", b.dataDir, "-pair", strings.Join(b.w.pair.tables, ","),
		"-tmp", filepath.Join(b.runDir, "layers")}
	if b.live != nil {
		f := filepath.Join(b.runDir, "batches.json")
		body, err := json.Marshal(b.live.batches)
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(f, body, 0o644); err != nil {
			return nil, err
		}
		args = append(args, "-batches", f)
	}
	cmd := exec.Command(b.o.layers, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	m := map[string]float64{}
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, fmt.Errorf("layers output: %w", err)
	}
	return m, nil
}

// recovery is what the durability check found after the restart.
type recovery struct {
	ghErr float64
}

// durability checks ingest-live after the SIGKILL: a fresh sdbd on the same
// WAL directory must hold exactly the acknowledged batches (live items and
// live⋈probe rows) with the GH estimate inside the 5% gate. It also checks
// every live⋈probe answer of the run against the model states it could have
// seen.
func (b *bench) durability() (*recovery, error) {
	m := b.live
	refs := m.rowsByBatch()
	for _, r := range m.reads {
		okAny := false
		for k := r.lo; k <= min(r.hi, int64(len(refs)-1)); k++ {
			okAny = okAny || refs[k] == r.rows
		}
		if !okAny {
			b.chk.fail("live-probe: total_rows %d matches no state after %d..%d batches", r.rows, r.lo, r.hi)
		}
	}
	if m.lost > 0 {
		b.chk.fail("durability: %d batches have an unknown outcome", m.lost)
		return nil, nil
	}

	last := len(b.setups) - 1
	srv, _, err := startSDBD(b.o.sdbd, b.dataDir, b.walDir(last), filepath.Join(b.runDir, "sdbd-recovered.log"), b.tables)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	d := newLoadgen(b.w, b.o.seed, b.ref, srv.base, b.chk, nil)
	get := func(path string, body []byte, v any) error {
		r := d.send(op{path: path, body: body}, false)
		if !r.ok() {
			return fmt.Errorf("%s: status %d: %.200s", path, r.status, r.body)
		}
		return json.Unmarshal(r.body, v)
	}
	count := func(right string) (int, error) {
		var q queryResponse
		err := get("/v1/query", mustJSON(map[string]any{"tables": []string{"live", right},
			"predicates": [][2]string{{"live", right}}, "limit": 1}), &q)
		return q.TotalRows, err
	}
	live, err := count("cover")
	if err != nil {
		return nil, err
	}
	want := len(m.items)
	for _, bt := range m.batches {
		want -= len(bt.Delete)
	}
	if live != want {
		b.chk.fail("durability: %d live items recovered, model has %d", live, want)
	}
	rows, err := count("probe")
	if err != nil {
		return nil, err
	}
	want = refs[len(refs)-1]
	if rows != want {
		b.chk.fail("durability: live-probe %d rows after recovery, model %d", rows, want)
	}
	var est struct {
		PairCount float64 `json:"pair_count"`
	}
	if err := get("/v1/estimate", mustJSON(map[string]string{"left": "live", "right": "probe"}), &est); err != nil {
		return nil, err
	}
	ghErr := abs(est.PairCount-float64(want)) / float64(want)
	if ghErr > ghGate {
		b.chk.fail("durability: GH estimate %.0f is %.2f%% off the exact %d (gate %.0f%%)", est.PairCount, 100*ghErr, want, 100*ghGate)
	}
	return &recovery{ghErr: ghErr}, nil
}

// rowsByBatch returns the exact live⋈probe row count after each prefix of
// the acknowledged batches: element k is the state after k batches. The
// count is kept incrementally, each inserted or deleted item adding or
// removing the probe items it meets; the items are normalised with the live
// table's extent as sdbd normalises them.
func (m *liveModel) rowsByBatch() []int {
	norm := dataset.New("live", m.extent, m.items).Normalize().Items
	initial := len(m.items)
	for _, bt := range m.batches {
		initial -= len(bt.Insert)
	}
	rows := sweep.Count(norm[:initial], m.probe)
	refs := []int{rows}
	meets := func(r geom.Rect) int {
		n := 0
		for _, p := range m.probe {
			if r.Intersects(p) {
				n++
			}
		}
		return n
	}
	for _, bt := range m.batches {
		for _, id := range bt.Delete {
			rows -= meets(norm[id])
		}
		for _, id := range bt.IDs {
			rows += meets(norm[id])
		}
		refs = append(refs, rows)
	}
	return refs
}
