package metrics

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Register(NewHistogram("dup_seconds", "one", nil))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.Register(NewHistogram("dup_seconds", "two", nil))
}

// counterFamily renders one unlabeled counter the way a collector does.
func counterFamily(name, help string, v float64) Family {
	return Family{Name: name, Help: help, Type: "counter", Samples: []Sample{{Value: v}}}
}

// referenceHistogram is the obvious single-lock implementation the striped
// one must agree with exactly (counts) and within float tolerance (sum).
type referenceHistogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

func (r *referenceHistogram) observe(v float64) {
	i := 0
	for i < len(r.bounds) && r.bounds[i] < v {
		i++
	}
	r.counts[i]++
	r.sum += v
	r.n++
}

func TestHistogramAgainstReference(t *testing.T) {
	bounds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 1}
	h := NewHistogram("h", "help", bounds)
	ref := &referenceHistogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		var v float64
		switch i % 5 {
		case 0:
			v = rng.Float64() * 2 // spans past the top bound into +Inf
		case 1:
			v = bounds[rng.Intn(len(bounds))] // exactly on a boundary: le is inclusive
		default:
			v = rng.Float64() * 0.02
		}
		h.Observe(v)
		ref.observe(v)
	}
	counts, sum, n := h.Snapshot()
	if n != ref.n {
		t.Fatalf("count = %d, want %d", n, ref.n)
	}
	for i := range counts {
		if counts[i] != ref.counts[i] {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], ref.counts[i])
		}
	}
	diff := sum - ref.sum
	if diff < 0 {
		diff = -diff
	}
	// Striped summation changes float addition order; allow rounding slack.
	if diff > 1e-6 {
		t.Fatalf("sum = %v, want %v (diff %v)", sum, ref.sum, diff)
	}
}

func TestHistogramBoundaryInclusive(t *testing.T) {
	h := NewHistogram("h", "help", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive: must land in bucket 0
	h.Observe(1.5)
	h.Observe(3)
	counts, _, n := h.Snapshot()
	if n != 3 {
		t.Fatalf("n = %d, want 3", n)
	}
	want := []uint64{1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, counts[i], w, counts)
		}
	}
}

// TestConcurrentObserveScrape exercises observers racing scrapes and other
// observers; run under -race this is the registry's thread-safety proof.
// The final totals must account for every observation.
func TestConcurrentObserveScrape(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram("lat_seconds", "help", []float64{0.01, 0.1})
	r.Register(h)
	var ops atomic.Uint64
	r.Collect(func() []Family {
		return []Family{counterFamily("ops_total", "help", float64(ops.Load()))}
	})
	const workers, perWorker = 8, 5000
	var observers, scraper sync.WaitGroup
	stop := make(chan struct{})
	// Scraper loop: render continuously while observers run.
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WriteText(io.Discard); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		observers.Add(1)
		go func(seed int64) {
			defer observers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				h.Observe(rng.Float64())
				ops.Add(1)
			}
		}(int64(w))
	}
	observers.Wait()
	close(stop)
	scraper.Wait()
	_, _, n := h.Snapshot()
	if n != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", n, workers*perWorker)
	}
}

func TestTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Collect(func() []Family {
		return []Family{
			counterFamily("trod_test_ops_total", "Operations handled.", 3),
			{Name: "trod_test_live_sessions", Help: "Sessions currently open.", Type: "gauge", Samples: []Sample{{Value: 2}}},
			{Name: "trod_test_ratio", Help: "A derived ratio.", Type: "gauge", Samples: []Sample{{Value: 0.5}}},
		}
	})
	h := NewHistogram("trod_test_latency_seconds", "Request latency.", []float64{0.001, 0.01})
	r.Register(h)
	h.Observe(0.0005)
	h.Observe(0.002)
	h.Observe(5)
	v := NewHistogramVec("trod_test_req_seconds", "Per-type latency.", "type", []float64{0.01})
	r.Register(v)
	v.With("query").Observe(0.001)
	v.With("exec").Observe(1)
	r.Collect(func() []Family {
		return []Family{{Name: "trod_test_lag_seqs", Help: "Per-subscriber lag.", Type: "gauge", Samples: []Sample{
			{Labels: `subscriber="0"`, Value: 7},
			{Labels: `subscriber="1"`, Value: 0},
		}}}
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP trod_test_ops_total Operations handled.
# TYPE trod_test_ops_total counter
trod_test_ops_total 3
# HELP trod_test_live_sessions Sessions currently open.
# TYPE trod_test_live_sessions gauge
trod_test_live_sessions 2
# HELP trod_test_ratio A derived ratio.
# TYPE trod_test_ratio gauge
trod_test_ratio 0.5
# HELP trod_test_latency_seconds Request latency.
# TYPE trod_test_latency_seconds histogram
trod_test_latency_seconds_bucket{le="0.001"} 1
trod_test_latency_seconds_bucket{le="0.01"} 2
trod_test_latency_seconds_bucket{le="+Inf"} 3
trod_test_latency_seconds_sum 5.0025
trod_test_latency_seconds_count 3
# HELP trod_test_req_seconds Per-type latency.
# TYPE trod_test_req_seconds histogram
trod_test_req_seconds_bucket{type="exec",le="0.01"} 0
trod_test_req_seconds_bucket{type="exec",le="+Inf"} 1
trod_test_req_seconds_sum{type="exec"} 1
trod_test_req_seconds_count{type="exec"} 1
trod_test_req_seconds_bucket{type="query",le="0.01"} 1
trod_test_req_seconds_bucket{type="query",le="+Inf"} 1
trod_test_req_seconds_sum{type="query"} 0.001
trod_test_req_seconds_count{type="query"} 1
# HELP trod_test_lag_seqs Per-subscriber lag.
# TYPE trod_test_lag_seqs gauge
trod_test_lag_seqs{subscriber="0"} 7
trod_test_lag_seqs{subscriber="1"} 0
`
	if got := b.String(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestEscaping(t *testing.T) {
	if got := EscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Fatalf("EscapeLabel = %q", got)
	}
	r := NewRegistry()
	r.Collect(func() []Family { return []Family{counterFamily("c_total", "line1\nline2\\end", 0)} })
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `# HELP c_total line1\nline2\\end`) {
		t.Fatalf("help not escaped: %q", b.String())
	}
}

func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	r.Collect(func() []Family { return []Family{counterFamily("up_total", "help", 1)} })
	draining := false
	drainingErr := func() error {
		if draining {
			return errDraining{}
		}
		return nil
	}
	srv := httptest.NewServer(Handler(r, drainingErr))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("metrics body missing counter: %q", body)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d, want 200", resp.StatusCode)
	}

	draining = true
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz status while draining = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Fatalf("healthz body = %q, want draining", body)
	}
}

type errDraining struct{}

func (errDraining) Error() string { return "draining" }
