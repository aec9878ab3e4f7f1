package reload

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
)

// Group runs one Reloader per registered domain, so every vertical's
// snapshot hot-swaps on its own watcher: movies can install a new
// dictionary generation (or reject a corrupt one) while cameras keeps
// serving untouched. Domains are added at boot, before Run/Mount; the
// set is immutable while serving.
type Group struct {
	names []string // registration order
	by    map[string]*Reloader
}

// NewGroup returns an empty watcher group.
func NewGroup() *Group {
	return &Group{by: make(map[string]*Reloader)}
}

// Add registers a domain's reloader.
func (g *Group) Add(domain string, r *Reloader) error {
	if domain == "" {
		return fmt.Errorf("reload: empty domain name")
	}
	if _, dup := g.by[domain]; dup {
		return fmt.Errorf("reload: domain %q already has a watcher", domain)
	}
	g.by[domain] = r
	g.names = append(g.names, domain)
	return nil
}

// Reloader returns the named domain's reloader.
func (g *Group) Reloader(domain string) (*Reloader, bool) {
	r, ok := g.by[domain]
	return r, ok
}

// Names returns the watched domains in registration order.
func (g *Group) Names() []string { return append([]string(nil), g.names...) }

// Run starts every domain's poll loop and blocks until all of them
// return (each exits on ctx cancellation; watchers with a non-positive
// interval return immediately and stay admin-triggered only).
func (g *Group) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, name := range g.names {
		wg.Add(1)
		go func(r *Reloader) {
			defer wg.Done()
			r.Run(ctx)
		}(g.by[name])
	}
	wg.Wait()
}

// Statuses returns every domain's watcher status, keyed by domain.
func (g *Group) Statuses() map[string]Status {
	out := make(map[string]Status, len(g.names))
	for name, r := range g.by {
		out[name] = r.Status()
	}
	return out
}

// Mount registers the per-domain reload admin surface:
//
//	POST /admin/reload?domain=<name>[&force=1] — reload that domain now;
//	      the domain param may be omitted when exactly one domain is
//	      watched. Unknown domains are 404; a rejected snapshot is 422
//	      with the old generation still serving (see handleReload).
//	GET  /admin/reload/status                  — every watcher's counters,
//	      keyed by domain (?domain=<name> narrows to one).
func (g *Group) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /admin/reload", func(w http.ResponseWriter, req *http.Request) {
		r, ok := g.byParam(w, req)
		if !ok {
			return
		}
		r.handleReload(w, req)
	})
	mux.HandleFunc("GET /admin/reload/status", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Has("domain") {
			r, ok := g.byParam(w, req)
			if !ok {
				return
			}
			r.handleStatus(w, req)
			return
		}
		writeJSON(w, http.StatusOK, g.Statuses())
	})
}

// byParam resolves the ?domain= param to a reloader, writing the error
// response itself when it cannot. A missing param is accepted only when
// the group watches exactly one domain.
func (g *Group) byParam(w http.ResponseWriter, req *http.Request) (*Reloader, bool) {
	name := req.URL.Query().Get("domain")
	if name == "" {
		if len(g.names) == 1 {
			return g.by[g.names[0]], true
		}
		http.Error(w, fmt.Sprintf("domain param required (watched: %s)", strings.Join(g.names, ", ")),
			http.StatusBadRequest)
		return nil, false
	}
	r, ok := g.by[name]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown domain %q (watched: %s)", name, strings.Join(g.names, ", ")),
			http.StatusNotFound)
		return nil, false
	}
	return r, true
}
