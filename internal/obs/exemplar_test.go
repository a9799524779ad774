package obs

import (
	"strings"
	"testing"
)

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_seconds", "Request latency.", []float64{0.01, 0.1, 1}, nil)
	h.Observe(0.005) // no exemplar
	h.ObserveTrace(0.05, "0123456789abcdef0123456789abcdef")
	h.ObserveTrace(0.07, "fedcba9876543210fedcba9876543210") // same bucket: last wins
	h.ObserveTrace(0.5, "")                                  // empty trace: plain observe
	h.ObserveTrace(0.5, "not-a-trace-id")                    // so is anything that is not 32 hex digits
	h.ObserveTrace(0.5, "0123456789abcdef0123456789abcdeX")  // however nearly
	h.ObserveSpan(0.5, nil)                                  // and a nil span

	if got := h.Exemplar(0.06); got != "fedcba9876543210fedcba9876543210" {
		t.Errorf("Exemplar(0.06) = %q", got)
	}
	if got := h.Exemplar(0.005); got != "" {
		t.Errorf("Exemplar(0.005) = %q, want none", got)
	}
	if got := h.Exemplar(0.5); got != "" {
		t.Errorf("Exemplar(0.5) = %q, want none", got)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	sp := NewTracer(1).Start("request")
	h.ObserveSpan(0.5, sp)
	if got := h.Exemplar(0.5); got != sp.TraceID() {
		t.Errorf("Exemplar(0.5) = %q, want the span's trace %q", got, sp.TraceID())
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `req_seconds_bucket{le="0.1"} 3 # {trace_id="fedcba9876543210fedcba9876543210"} 0.07`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing exemplar line %q:\n%s", want, out)
	}
	if strings.Contains(out, `le="0.01"} 1 #`) {
		t.Errorf("bucket without exemplar grew a suffix:\n%s", out)
	}
}

func TestHistogramExemplarConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "", []float64{1}, nil)
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 500; i++ {
				h.ObserveTrace(0.5, "0123456789abcdef0123456789abcdef")
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if h.Count() != 2000 {
		t.Errorf("count = %d, want 2000", h.Count())
	}
	if h.Exemplar(0.5) == "" {
		t.Error("no exemplar after concurrent observes")
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	info := RegisterBuildInfo(r, "specd-test")
	if info.Version == "" || info.GoVersion == "" {
		t.Errorf("empty build info: %+v", info)
	}
	if s := info.String(); !strings.Contains(s, info.GoVersion) {
		t.Errorf("String() = %q missing go version", s)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "specweb_build_info") ||
		!strings.Contains(out, `binary="specd-test"`) {
		t.Errorf("exposition missing build info:\n%s", out)
	}
}
