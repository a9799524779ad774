package httpspec

import (
	"testing"
	"time"

	"specweb/internal/webgraph"
)

// The external tests (package httpspec_test) drive the test world through
// loadgen, which imports this package and so cannot be imported from
// inside it; these are their handles on the world.

func NewWorld(t *testing.T, mode Mode) *testWorld { return newWorld(t, mode) }

func (w *testWorld) URL() string             { return w.ts.URL }
func (w *testWorld) Site() *webgraph.Site    { return w.site }
func (w *testWorld) Server() *Server         { return w.server }
func (w *testWorld) Advance(d time.Duration) { w.advance(d) }
func (w *testWorld) Clock() time.Time        { return w.clock() }

var FastRetry = fastRetry

// SessionOf is the engine's key for the session a Spec-Accept header states.
func SessionOf(accept string) uint64 {
	_, _, session := parseAccept(accept)
	return sessionKey(session)
}
