package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"spatialsel/internal/datagen"
	"spatialsel/internal/dataset"
	"spatialsel/internal/telemetry"
)

// BenchmarkServeRequest times one read request through the whole handler
// stack — routing, middleware, JSON decoding, admission, planning,
// execution and encoding — without a network hop. The catalog is three
// 2,000-item tables (uniform, polyline, cluster) and the server runs with
// sdbd's defaults: the admission gate and the telemetry layer on, a 250ms
// slow-query threshold. The join kernel is a fixed share of q2/q3, so
// per-request overhead around it shows up here first.
//
//	go test -bench ServeRequest -benchmem ./internal/server/
func BenchmarkServeRequest(b *testing.B) {
	const slow = 250 * time.Millisecond
	srv, err := New(Config{
		Admission:       true,
		AdmissionTarget: slow,
		EnableTelemetry: true,
		Telemetry:       telemetry.Options{SlowQuery: slow},
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{
		datagen.Uniform("u", 2000, 0.005, 101),
		datagen.PolylineTrace("p", 2000, 50, 0.004, 102),
		datagen.Cluster("c", 2000, 0.4, 0.6, 0.1, 0.005, 103),
	} {
		if _, _, err := srv.store.Register(d, false); err != nil {
			b.Fatal(err)
		}
	}
	h := srv.Handler()
	const chain = `"tables":["u","p","c"],"predicates":[["u","p"],["p","c"]]`
	for _, rq := range []struct{ name, path, body string }{
		{"q2", "/v1/query", `{"tables":["u","p"],"predicates":[["u","p"]],"limit":100}`},
		{"q3", "/v1/query", `{` + chain + `,"limit":100}`},
		{"est2", "/v1/estimate", `{"left":"u","right":"p"}`},
		{"est3", "/v1/estimate", `{` + chain + `}`},
	} {
		b.Run(rq.name, func(b *testing.B) {
			body := []byte(rq.body)
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rq.path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", rq.name, rec.Code, rec.Body)
				}
			}
			serve() // warm the estimate cache, as a serving process would be
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
		})
	}
}
