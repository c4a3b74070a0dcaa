package main

import "testing"

// TestReportName pins the snapshot naming: the commit, and a dirty marker,
// keep snapshots of different trees taken on one day from overwriting each
// other.
func TestReportName(t *testing.T) {
	for _, tc := range []struct {
		rep  Report
		want string
	}{
		{Report{Date: "2026-10-17", GitCommit: "5083d05"}, "BENCH_2026-10-17_5083d05.json"},
		{Report{Date: "2026-10-17", GitCommit: "5083d05", Dirty: true}, "BENCH_2026-10-17_5083d05-dirty.json"},
		{Report{Date: "2026-10-17"}, "BENCH_2026-10-17.json"},
	} {
		if got := reportName(tc.rep); got != tc.want {
			t.Errorf("reportName(%+v) = %q, want %q", tc.rep, got, tc.want)
		}
	}
}
