// Command perfbench is the end-to-end benchmark of sdbd, the spatial
// database daemon. perfbench/run.sh builds sdbd and this program from the
// checkout and runs one workload; run it from the root of the checkout:
//
//	bash perfbench/run.sh --workload serve-small --seed 1 --seconds 10 --trace 0
//
// A run generates the workload's tables from the seed as .sds files, starts
// sdbd on them with its default flags several times (the median start-up is
// setup_s), warms it up, and drives it for --seconds with closed-loop
// clients, each of which waits for its reply. Every answer is checked against
// a reference computed here with the plane sweep; ingest-live also kills and
// restarts sdbd and checks what its WAL recovered. The lines printed above the
// last one give every metric by name and unit; the last line is one JSON
// object with the gated metrics.
//
// With --trace 1 the run measures an untraced phase and then a traced one
// (EXPLAIN ANALYZE on every query, /metrics deltas, sdbd CPU from /proc),
// times the layers' public functions in process on the same tables (the
// layers program), and reports the per-layer metrics.
//
// The process exits 1 on a reference mismatch, a failed durability check or
// a GH error above 5% after recovery on ingest-live.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spatialsel/internal/dataset"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sdbd     string // sdbd binary
	layers   string // layers binary
	work     string // directory for runs and results
	root     string // checkout root, for provenance
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated tables and request sequences")
	fs.IntVar(&o.seconds, "seconds", 10, "length of each measured phase in seconds")
	trace := fs.Int("trace", 0, "1 adds the traced phase and reports per-layer metrics")
	fs.StringVar(&o.sdbd, "sdbd", "", "sdbd binary built from the checkout")
	fs.StringVar(&o.layers, "layers", "", "layers binary built from the checkout")
	fs.StringVar(&o.work, "work", "", "directory for run data and result files")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	o.trace = *trace == 1
	switch {
	case workloads[o.workload] == nil:
		return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	case o.seconds < 1:
		return nil, fmt.Errorf("seconds must be ≥ 1")
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("trace must be 0 or 1")
	case o.sdbd == "" || o.layers == "" || o.work == "":
		return nil, fmt.Errorf("-sdbd, -layers and -work are required (run through perfbench/run.sh)")
	}
	return o, nil
}

func main() {
	ok, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind a percentile or ratio
	// Gated metrics form the last line: BENCHMARK.json's end_to_end set
	// untraced, its per_layer set traced.
	Gated bool   `json:"gated"`
	Note  string `json:"note,omitempty"`
}

// run executes one workload and reports whether every check passed.
func run(args []string, stdout io.Writer) (bool, error) {
	o, err := parseFlags(args)
	if err != nil {
		return false, err
	}
	w := workloads[o.workload]
	started := time.Now().UTC()
	runDir := filepath.Join(o.work, "runs", fmt.Sprintf("%s-%s-seed%d-trace%d-%d",
		started.Format("20060102T150405.000000000Z"), w.name, o.seed, b2i(o.trace), os.Getpid()))
	dataDir := filepath.Join(runDir, "data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return false, err
	}
	// The tables and WALs are regenerated on every run and removed after it.
	defer os.RemoveAll(dataDir)
	defer os.RemoveAll(filepath.Join(runDir, "wal"))

	tabs := w.tables(o.seed)
	for _, d := range tabs {
		if err := dataset.SaveFile(filepath.Join(dataDir, d.Name+".sds"), d); err != nil {
			return false, err
		}
	}
	ref, err := computeReference(w, tabs)
	if err != nil {
		return false, err
	}
	var live *liveModel
	if w.writer {
		live = &liveModel{extent: tabs[0].Extent, items: tabs[0].Items,
			probe: tabs[1].Normalize().Items}
	}
	ntables := len(tabs)
	tabs = nil
	runtime.GC()

	b := &bench{o: o, w: w, ref: ref, runDir: runDir, dataDir: dataDir, tables: ntables, live: live, chk: &checks{}}
	ms, err := b.measure()
	if err != nil {
		return false, err
	}
	ok := len(b.chk.failures) == 0
	for _, f := range b.chk.failures {
		fmt.Fprintln(stdout, "CHECK FAILED:", f)
	}
	if ok {
		// sdbd logs every request; they are kept only to debug a failed run.
		logs, _ := filepath.Glob(filepath.Join(runDir, "sdbd-*.log"))
		for _, l := range logs {
			_ = os.Remove(l) // a leftover log costs only disk
		}
	}
	if err := b.writeResult(started, ms, ok); err != nil {
		return false, err
	}
	printReport(stdout, w, o, ms)

	last := map[string]any{}
	for _, m := range ms {
		if m.Gated {
			last[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, err := json.Marshal(map[string]any{"correct": ok, "attempted": b.attempted,
		"failed": b.failed, "metrics": last})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return ok, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func printReport(out io.Writer, w *workload, o *options, ms []metric) {
	fmt.Fprintf(out, "workload %s, seed %d, %ds, trace %d: %s\n", w.name, o.seed, o.seconds, b2i(o.trace), w.why)
	if w.ungated != "" {
		fmt.Fprintf(out, "note: %s is %s\n", w.name, w.ungated)
	}
	for _, m := range ms {
		gate := " "
		if m.Gated {
			gate = "*"
		}
		line := fmt.Sprintf("%s %-34s %14.6g %-6s", gate, m.Name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(out, line)
	}
}

// provenance identifies the tree, toolchain and host behind a result.
type provenance struct {
	GitCommit    string `json:"git_commit"`
	GitDirty     *bool  `json:"git_dirty"`
	SourceSHA256 string `json:"source_sha256"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
}

func collectProvenance(root string) provenance {
	p := provenance{GitCommit: "unknown", SourceSHA256: sourceHash(root), GoVersion: runtime.Version(),
		CPUModel: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		// Look for a repository in the checkout only, never above it.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		return cmd.Output()
	}
	if out, err := git("rev-parse", "HEAD"); err == nil {
		p.GitCommit = strings.TrimSpace(string(out))
		if st, err := git("status", "--porcelain"); err == nil {
			dirty := len(strings.TrimSpace(string(st))) > 0
			p.GitDirty = &dirty
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return p
}

// sourceHash digests every Go source and module file of the checkout, so a
// result names the tree that produced it even outside a git repository.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeResult stores the run's full record in a file of its own: the run
// directory's name carries a nanosecond timestamp and the process ID, and
// the file is created exclusively, so no run overwrites another's result.
func (b *bench) writeResult(started time.Time, ms []metric, ok bool) error {
	rec := map[string]any{
		"workload": b.w.name, "why": b.w.why, "params": b.w.params,
		"seed": b.o.seed, "seconds": b.o.seconds, "trace": b2i(b.o.trace),
		"started_utc": started.Format(time.RFC3339Nano), "provenance": collectProvenance(b.o.root),
		"reference": map[string]int{"pair_rows": b.ref.pair, "chain_rows": b.ref.chain},
		"setup_s":   b.setups, "correct": ok, "check_failures": b.chk.failures,
		"attempted": b.attempted, "failed": b.failed, "metrics": ms,
	}
	body, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(b.o.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, filepath.Base(b.runDir)+".json"), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
