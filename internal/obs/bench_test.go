package obs

import "testing"

var sinkHeader string

// BenchmarkSpan is the server's span shape on one request: continue the
// caller's trace, annotate, open and close a child, render the header for
// the next hop, finish. `make bench-smoke` runs it for the ceiling.
func BenchmarkSpan(b *testing.B) {
	tr := NewTracer(64)
	parent := tr.Start("client.get").Traceparent()
	op := func() {
		sp := tr.StartRemote("server.request", parent)
		sp.SetAttr("path", "/bench")
		sp.SetAttr("rung", "normal")
		child := tr.StartChild("server.speculate", sp)
		child.Finish()
		sinkHeader = sp.Traceparent()
		sp.Finish()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	// One allocation per span and one for the header string: 1.5 a span,
	// under the budget of two.
	b.StopTimer()
	if got := testing.AllocsPerRun(100, op); got > 3 {
		b.Fatalf("%v allocs/op for two spans and a header, ceiling 3", got)
	}
}
