package server

import (
	"net/http"
	"testing"
)

// TestCacheInvalidationOverHTTP is the satellite scenario: register,
// estimate (miss), estimate (hit), replace the table, estimate (miss again)
// — asserted through the /metrics hit/miss counters.
func TestCacheInvalidationOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Level: 5})
	createTable(t, ts.URL, "a", "uniform", 800, 1, false)
	createTable(t, ts.URL, "b", "uniform", 800, 2, false)

	estimate := func() EstimateResponse {
		t.Helper()
		var est EstimateResponse
		if code := doJSON(t, http.MethodPost, ts.URL+"/v1/estimate",
			EstimateRequest{Left: "a", Right: "b"}, &est); code != 200 {
			t.Fatalf("estimate: status %d", code)
		}
		return est
	}
	counters := func() (hits, misses float64) {
		t.Helper()
		m := fetchMetrics(t, ts.URL)
		return metricValue(t, m, "sdbd_estimate_cache_hits_total"),
			metricValue(t, m, "sdbd_estimate_cache_misses_total")
	}

	first := estimate()
	if first.Cached {
		t.Fatal("first estimate should miss")
	}
	if hits, misses := counters(); hits != 0 || misses != 1 {
		t.Fatalf("after first estimate: hits=%v misses=%v", hits, misses)
	}

	second := estimate()
	if !second.Cached || second.PairCount != first.PairCount {
		t.Fatalf("second estimate should hit with identical value: %+v", second)
	}
	if hits, misses := counters(); hits != 1 || misses != 1 {
		t.Fatalf("after second estimate: hits=%v misses=%v", hits, misses)
	}

	// Replace table a with different data: the generation changes, so the
	// old cache entry can no longer be addressed.
	createTable(t, ts.URL, "a", "uniform", 800, 99, true)

	third := estimate()
	if third.Cached {
		t.Fatal("estimate after replace must miss")
	}
	if hits, misses := counters(); hits != 1 || misses != 2 {
		t.Fatalf("after replace: hits=%v misses=%v", hits, misses)
	}
	if third.PairCount == first.PairCount {
		t.Log("note: replaced table produced identical estimate (possible but unlikely)")
	}
}
