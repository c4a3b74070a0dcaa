// Command benchrun executes a fixed estimator/join workload and writes a
// machine-readable BENCH_<date>_<commit>[-dirty].json snapshot: per-method
// estimation accuracy and latency percentiles, join execution latency, and
// the engine's obs counters, stamped with the commit, whether the working
// tree was dirty, and the host's CPU. Committing one snapshot per
// perf-relevant change makes the repo's performance trajectory diffable, and
// the name keeps snapshots of different trees from overwriting each other.
//
//	$ go run ./cmd/benchrun -scale 0.2 -out .
//	$ cat BENCH_2026-08-05.json | jq .methods.gh
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"spatialsel/internal/core"
	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/histogram"
	"spatialsel/internal/obs"
	"spatialsel/internal/rtree"
	"spatialsel/internal/sample"
	"spatialsel/internal/sdb"
)

// Report is the top-level JSON document.
type Report struct {
	Date       string             `json:"date"`
	GoVersion  string             `json:"go_version"`
	GitCommit  string             `json:"git_commit,omitempty"` // short HEAD, "" outside a repo
	Dirty      bool               `json:"dirty"`                // working tree differed from GitCommit
	CPUModel   string             `json:"cpu_model,omitempty"`  // "" where the platform does not say
	NumCPU     int                `json:"num_cpu"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Workers    int                `json:"workers"`
	Scale      float64            `json:"scale"`
	Level      int                `json:"level"`
	Iters      int                `json:"iters"`
	Workloads  []WorkloadReport   `json:"workloads"`
	Ingest     *IngestReport      `json:"ingest,omitempty"`
	Overload   *OverloadReport    `json:"overload,omitempty"`
	Counters   map[string]float64 `json:"counters"`
}

// WorkloadReport covers one dataset pair: the executed join truth, its
// latency, and every estimation method measured against it.
type WorkloadReport struct {
	Name        string                  `json:"name"`
	LeftItems   int                     `json:"left_items"`
	RightItems  int                     `json:"right_items"`
	ActualPairs int                     `json:"actual_pairs"`
	JoinMicros  Percentiles             `json:"join_micros"`
	JoinKernel  JoinKernelReport        `json:"join_kernel"`
	Methods     map[string]MethodReport `json:"methods"`
}

// MethodReport is one estimator's accuracy and cost on one workload.
type MethodReport struct {
	Estimate  float64     `json:"estimate"`
	RelError  float64     `json:"rel_error"`
	EstMicros Percentiles `json:"estimate_micros"`
}

// Percentiles summarizes a latency sample in microseconds.
type Percentiles struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

func percentiles(us []int64) Percentiles {
	if len(us) == 0 {
		return Percentiles{}
	}
	sort.Slice(us, func(i, j int) bool { return us[i] < us[j] })
	at := func(q float64) int64 {
		i := int(q * float64(len(us)-1))
		return us[i]
	}
	return Percentiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: us[len(us)-1]}
}

// workload is one fixed dataset pair; n values are pre-scale cardinalities.
type workload struct {
	name          string
	left, right   func(n int, seed int64) *dataset.Dataset
	nLeft, nRight int
}

var workloads = []workload{
	{
		name: "uniform-uniform",
		left: func(n int, seed int64) *dataset.Dataset {
			return datagen.Uniform("u1", n, 0.005, seed)
		},
		right: func(n int, seed int64) *dataset.Dataset {
			return datagen.Uniform("u2", n, 0.005, seed)
		},
		nLeft: 20000, nRight: 20000,
	},
	{
		name: "polyline-polyline",
		left: func(n int, seed int64) *dataset.Dataset {
			return datagen.PolylineTrace("p1", n, 50, 0.004, seed)
		},
		right: func(n int, seed int64) *dataset.Dataset {
			return datagen.PolylineTrace("p2", n, 50, 0.004, seed)
		},
		nLeft: 20000, nRight: 6000,
	},
	{
		name: "cluster-uniform",
		left: func(n int, seed int64) *dataset.Dataset {
			return datagen.Cluster("c1", n, 0.4, 0.6, 0.1, 0.005, seed)
		},
		right: func(n int, seed int64) *dataset.Dataset {
			return datagen.Uniform("u3", n, 0.005, seed)
		},
		nLeft: 15000, nRight: 15000,
	},
}

var methods = []string{"gh", "basicgh", "ph", "rs", "rswr", "ss"}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchrun:", err)
		os.Exit(1)
	}
}

// gitCommit stamps the snapshot with the working tree's short HEAD and
// whether the tree differs from it (modified or untracked, non-ignored
// files), so the bench trajectory is attributable to exact sources.
// Best-effort: outside a git checkout (or without git on PATH) it returns
// "" and false.
func gitCommit() (commit string, dirty bool) {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(bytes.TrimSpace(status)) > 0
}

// cpuModel returns the host CPU's model name from /proc/cpuinfo, or "" where
// that file does not exist or does not name one.
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// reportName is the snapshot's file name: BENCH_<date>_<commit>[-dirty].json,
// or BENCH_<date>.json when no commit is known.
func reportName(rep Report) string {
	name := "BENCH_" + rep.Date
	if rep.GitCommit != "" {
		name += "_" + rep.GitCommit
		if rep.Dirty {
			name += "-dirty"
		}
	}
	return name + ".json"
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchrun", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.2, "dataset cardinality multiplier")
	level := fs.Int("level", sdb.StatisticsLevel, "GH statistics level")
	iters := fs.Int("iters", 9, "timed repetitions per measurement")
	fraction := fs.Float64("fraction", 0.1, "sampling fraction for rs/rswr/ss")
	workers := fs.Int("workers", 0, "parallel join pool size (0 = GOMAXPROCS)")
	overload := fs.Bool("overload", true, "run the 2x-capacity overload scenario (admission gate on vs off)")
	overloadMS := fs.Int("overload-ms", 1200, "overload scenario phase duration in milliseconds")
	outDir := fs.String("out", ".", "directory for the BENCH_<date>_<commit>[-dirty].json snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Resolve the knob exactly the way the join kernels do, so the snapshot's
	// workers field records the pool size measurements actually used.
	*workers = rtree.ResolveJoinWorkers(*workers)

	before := obs.Default.Snapshot()
	commit, dirty := gitCommit()
	rep := Report{
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GitCommit:  commit,
		Dirty:      dirty,
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    *workers,
		Scale:      *scale,
		Level:      *level,
		Iters:      *iters,
	}

	for i, w := range workloads {
		wr, err := runWorkload(w, *scale, *level, *iters, *fraction, *workers, int64(i+1))
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, wr)
		fmt.Fprintf(os.Stderr, "%-20s actual=%d join_p50=%dµs gh_err=%.3f packed=%.2fx workers=%d\n",
			w.name, wr.ActualPairs, wr.JoinMicros.P50, wr.Methods["gh"].RelError,
			wr.JoinKernel.PackedSpeedup, wr.JoinKernel.Workers)
	}

	// Mixed read/write workload: throughput, WAL fsync latency, and the
	// GH-accuracy-under-churn gate (the run fails if maintained statistics
	// drift past 5% relative error).
	ing, err := runIngest(*scale, *level, 42)
	if err != nil {
		return fmt.Errorf("ingest workload: %w", err)
	}
	rep.Ingest = &ing
	fmt.Fprintf(os.Stderr, "%-20s records/s=%.0f fsync_p99=%dµs max_err=%.4f repacks=%d\n",
		"ingest-churn", ing.RecordsPerSec, ing.WALFsyncMicros.P99, ing.MaxRelError, ing.Repacks)

	// Overload: the admission gate against 2× capacity, versus a gate-less
	// baseline on the same workload.
	if *overload {
		ol, err := runOverload(*scale, *level, time.Duration(*overloadMS)*time.Millisecond)
		if err != nil {
			return fmt.Errorf("overload workload: %w", err)
		}
		rep.Overload = &ol
		fmt.Fprintf(os.Stderr, "%-20s goodput=%.0f/s shed=%.1f%% admitted_p99=%dµs baseline_p99=%dµs\n",
			"overload-2x", ol.Admission.GoodputQPS, 100*ol.Admission.ShedRate,
			ol.Admission.AdmittedMicros.P99, ol.Baseline.AdmittedMicros.P99)
	}

	// Counter deltas attribute the whole run's engine work (node visits,
	// cells touched, sample draws) to this snapshot.
	rep.Counters = map[string]float64{}
	for name, v := range obs.Default.Snapshot() {
		//lint:ignore floateq a counter the run never touched has a bit-identical snapshot; exact zero is the intended filter
		if d := v - before[name]; d != 0 {
			rep.Counters[name] = d
		}
	}

	path := filepath.Join(*outDir, reportName(rep))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println(path)
	return nil
}

func runWorkload(w workload, scale float64, level, iters int, fraction float64, workers int, seed int64) (WorkloadReport, error) {
	nl, nr := int(float64(w.nLeft)*scale), int(float64(w.nRight)*scale)
	if nl < 10 || nr < 10 {
		return WorkloadReport{}, fmt.Errorf("scale %g leaves too few items (%d, %d)", scale, nl, nr)
	}
	c, err := sdb.NewCatalogAtLevel(level)
	if err != nil {
		return WorkloadReport{}, err
	}
	dl, dr := w.left(nl, seed), w.right(nr, seed+100)
	dl.Name, dr.Name = "l", "r"
	tl, err := c.Create(dl)
	if err != nil {
		return WorkloadReport{}, err
	}
	tr, err := c.Create(dr)
	if err != nil {
		return WorkloadReport{}, err
	}

	plan, err := c.Plan(sdb.Query{
		Tables:     []string{"l", "r"},
		Predicates: []sdb.Predicate{{Left: "l", Right: "r"}},
	})
	if err != nil {
		return WorkloadReport{}, err
	}

	wr := WorkloadReport{
		Name:      w.name,
		LeftItems: tl.Len(), RightItems: tr.Len(),
		Methods: make(map[string]MethodReport, len(methods)),
	}

	joinTimes := make([]int64, 0, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		res, err := plan.ExecuteContext(context.Background())
		if err != nil {
			return WorkloadReport{}, err
		}
		joinTimes = append(joinTimes, time.Since(start).Microseconds())
		wr.ActualPairs = res.Len()
	}
	wr.JoinMicros = percentiles(joinTimes)

	kernel, err := measureJoinKernel(tl, tr, workers, iters)
	if err != nil {
		return WorkloadReport{}, err
	}
	wr.JoinKernel = kernel

	for _, m := range methods {
		mr, err := runMethod(m, tl, tr, level, iters, fraction, float64(wr.ActualPairs))
		if err != nil {
			return WorkloadReport{}, err
		}
		wr.Methods[m] = mr
	}
	return wr, nil
}

// runMethod times build+estimate end to end — for sampling estimators the
// sample draw is the dominant cost and must be inside the clock, matching how
// the paper accounts estimation cost.
func runMethod(m string, a, b *sdb.Table, level, iters int, fraction float64, actual float64) (MethodReport, error) {
	times := make([]int64, 0, iters)
	var est core.Estimate
	for i := 0; i < iters; i++ {
		start := time.Now()
		var err error
		est, err = estimateOnce(m, a, b, level, fraction)
		if err != nil {
			return MethodReport{}, err
		}
		times = append(times, time.Since(start).Microseconds())
	}
	denom := actual
	if denom <= 0 {
		denom = 1
	}
	rel := (est.PairCount - actual) / denom
	if rel < 0 {
		rel = -rel
	}
	return MethodReport{Estimate: est.PairCount, RelError: rel, EstMicros: percentiles(times)}, nil
}

func estimateOnce(m string, a, b *sdb.Table, level int, fraction float64) (core.Estimate, error) {
	switch m {
	case "gh":
		t, err := histogram.NewGH(level)
		if err != nil {
			return core.Estimate{}, err
		}
		// GH estimates straight off the catalog's precomputed statistics —
		// the paper's point is that this path touches no base data.
		return t.Estimate(a.Stats, b.Stats)
	case "basicgh":
		t, err := histogram.NewBasicGH(level)
		if err != nil {
			return core.Estimate{}, err
		}
		return buildAndEstimate(t, a, b)
	case "ph":
		t, err := histogram.NewPH(level)
		if err != nil {
			return core.Estimate{}, err
		}
		return buildAndEstimate(t, a, b)
	case "rs", "rswr", "ss":
		kind := map[string]sample.Method{"rs": sample.RS, "rswr": sample.RSWR, "ss": sample.SS}[m]
		t, err := sample.New(kind, fraction, sample.WithSeed(1))
		if err != nil {
			return core.Estimate{}, err
		}
		return buildAndEstimate(t, a, b)
	}
	return core.Estimate{}, fmt.Errorf("unknown method %q", m)
}

func buildAndEstimate(t core.Technique, a, b *sdb.Table) (core.Estimate, error) {
	sa, err := t.Build(a.Data)
	if err != nil {
		return core.Estimate{}, err
	}
	sb, err := t.Build(b.Data)
	if err != nil {
		return core.Estimate{}, err
	}
	return t.Estimate(sa, sb)
}
