// Package httpspec is a working net/http realization of the paper's two
// protocols — the "development of prototypes to test and evaluate these
// protocols" the paper lists as work in progress (§4):
//
//   - Server serves a document store and speculates on each request using
//     the online core.Engine: it either pushes speculative documents in a
//     multipart/mixed bundle (speculative service), attaches
//     Link: rel="prefetch" hints (server-assisted prefetching), or both
//     (the hybrid protocol). Cooperative clients piggyback a cache digest
//     in a Spec-Have header.
//   - Client consumes bundles and hints (what one response hints it
//     prefetches in one Spec-Want request), keeps a session cache, and
//     reports whether a fetch was served locally.
//   - Proxy is a dissemination service proxy: it pulls a server's most
//     popular documents and fronts it, forwarding misses.
//
// The wire protocol is plain HTTP/1.0-era machinery (headers and
// multipart), deliberately implementable by 1995 software.
package httpspec

import (
	"fmt"
	"sync"
	"time"

	"specweb/internal/cache"
	"specweb/internal/webgraph"
)

// Store is the document store a speculative server serves.
type Store interface {
	// Lookup resolves a URL path to a document ID.
	Lookup(path string) (webgraph.DocID, bool)
	// Path returns the URL path of a document.
	Path(id webgraph.DocID) (string, bool)
	// Size returns a document's size in bytes.
	Size(id webgraph.DocID) (int64, bool)
	// Content returns the document body.
	Content(id webgraph.DocID) ([]byte, bool)
}

// SiteStore adapts a webgraph.Site as a Store, synthesizing deterministic
// document bodies of the declared sizes. Rendered bodies are kept in a
// bounded LRU so popular documents are synthesized once, not per request;
// the LRU accounting (and its hit/miss/eviction metrics) comes from
// internal/cache.
type SiteStore struct {
	site *webgraph.Site

	// clock supplies the LRU timestamps; nil means time.Now. Injected
	// by tests and the deterministic load generator so store behaviour
	// is a pure function of the request sequence.
	clock func() time.Time

	mu     sync.Mutex
	model  cache.Cache
	bodies map[webgraph.DocID][]byte
}

// DefaultBodyCacheBytes bounds the rendered-body cache NewSiteStore
// installs — enough for every hot document on the stock profiles.
const DefaultBodyCacheBytes = 16 << 20

// NewSiteStore wraps a site with the default body cache.
func NewSiteStore(site *webgraph.Site) *SiteStore {
	return NewSiteStoreCached(site, DefaultBodyCacheBytes)
}

// NewSiteStoreCached wraps a site with a body cache of the given byte
// capacity; capacity <= 0 disables caching (every Content call renders).
func NewSiteStoreCached(site *webgraph.Site, capacity int64) *SiteStore {
	s := &SiteStore{site: site}
	if capacity > 0 {
		s.model = cache.New(cache.Forever, capacity)
		s.bodies = make(map[webgraph.DocID][]byte)
	}
	return s
}

// SetClock injects the time source for the body-cache LRU; nil restores
// time.Now. Call before serving traffic.
func (s *SiteStore) SetClock(clock func() time.Time) *SiteStore {
	s.clock = clock
	return s
}

func (s *SiteStore) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now()
}

// Lookup resolves a path.
func (s *SiteStore) Lookup(path string) (webgraph.DocID, bool) {
	d := s.site.ByPath(path)
	if d == nil {
		return webgraph.None, false
	}
	return d.ID, true
}

// Path returns a document's URL path.
func (s *SiteStore) Path(id webgraph.DocID) (string, bool) {
	if !s.site.Valid(id) {
		return "", false
	}
	return s.site.Doc(id).Path, true
}

// Size returns a document's size.
func (s *SiteStore) Size(id webgraph.DocID) (int64, bool) {
	if !s.site.Valid(id) {
		return 0, false
	}
	return s.site.Doc(id).Size, true
}

// Content returns the document body: a readable header followed by a
// deterministic filler pattern, exactly Size bytes long. Callers must
// treat the slice as read-only — cached bodies are shared.
func (s *SiteStore) Content(id webgraph.DocID) ([]byte, bool) {
	if !s.site.Valid(id) {
		return nil, false
	}
	if s.model != nil {
		s.mu.Lock()
		s.model.Touch(s.now())
		if s.model.Has(id) {
			if body, ok := s.bodies[id]; ok {
				s.mu.Unlock()
				return body, true
			}
		}
		s.mu.Unlock()
	}
	body := renderBody(s.site.Doc(id))
	if s.model != nil {
		s.mu.Lock()
		s.model.Put(id, int64(len(body)))
		s.bodies[id] = body
		// The model evicts on its own; whenever the two disagree, release
		// the bodies that left it.
		if s.model.Len() < len(s.bodies) {
			for d := range s.bodies {
				if !s.model.Contains(d) {
					delete(s.bodies, d)
				}
			}
		}
		s.mu.Unlock()
	}
	return body, true
}

func renderBody(d *webgraph.Document) []byte {
	header := fmt.Sprintf("specweb synthetic %s doc=%d path=%s\n", d.Kind, d.ID, d.Path)
	n := int(d.Size)
	body := make([]byte, n)
	h := copy(body, header)
	if h == n {
		return body
	}
	// The filler is the alphabet repeated, body[i] = 'a' + (i+ID)%26: lay
	// one period down, then double it across the rest.
	var period [26]byte
	for k := range period {
		period[k] = byte('a' + (h+k+int(d.ID))%26)
	}
	fill := body[h:]
	for done := copy(fill, period[:]); done < len(fill); done *= 2 {
		copy(fill[done:], fill[:done])
	}
	return body
}

// Site exposes the wrapped site.
func (s *SiteStore) Site() *webgraph.Site { return s.site }
