package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"bat/internal/distserve"
	"bat/internal/ranking"
	"bat/internal/routing"
	"bat/internal/server"
	"bat/internal/serving"
)

const (
	distCells      = 2
	workersPerCell = 2
	// defaultWorkerBytes is the cache-worker capacity when a workload does
	// not shrink the pool: every user of the workload fits.
	defaultWorkerBytes = 64 << 20
)

// cell is one self-contained serving cell of the dist topology.
type cell struct {
	frontend *distserve.Frontend
	workers  []*distserve.CacheWorker
}

// plane is a built topology: the program under test plus the handle the load
// generator drives it through. Built from the layers' public constructors
// only; every HTTP handler is mounted behind the benchmark's own tracer.
type plane struct {
	w  *workload
	st *stream
	tr *tracer

	// dist topology.
	router *routing.Router
	cells  []*cell
	// local topology.
	srv *server.Server

	// url is the HTTP entry point (router or server); empty for the open-loop
	// workload, which calls srv.RankCtx directly.
	url     string
	closers []func()
}

// buildPlane constructs the workload's topology and warms it: every user
// that should be resident is ranked once and its store has landed.
func buildPlane(w *workload, st *stream, tr *tracer) (*plane, error) {
	p := &plane{w: w, st: st, tr: tr}
	var err error
	if w.dist {
		err = p.buildDist()
	} else {
		err = p.buildLocal()
	}
	if err == nil {
		err = p.warm()
	}
	if err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *plane) serve(layer string, h http.Handler) string {
	srv := httptest.NewServer(p.tr.wrap(layer, h))
	p.closers = append(p.closers, srv.Close)
	return srv.URL
}

func (p *plane) buildDist() error {
	workerBytes := int64(defaultWorkerBytes)
	if n := p.w.cellUserEntries; n > 0 {
		m, err := ranking.BuildModel(p.st.ds, ranking.VariantBase)
		if err != nil {
			return err
		}
		entry := int64(p.w.meanHistLen() * m.Config().KVBytesPerToken())
		workerBytes = int64(n) * entry / workersPerCell
	}
	var fronts []string
	for c := 0; c < distCells; c++ {
		metaURL := p.serve("meta", distserve.NewMetaServer(300, nil).Handler())
		cl := &cell{}
		var workerURLs []string
		for i := 0; i < workersPerCell; i++ {
			cw, err := distserve.NewCacheWorker(workerBytes)
			if err != nil {
				return err
			}
			// As in cmd/batdist: evictions un-register from the meta service,
			// so /v1/locate never reports entries the pool dropped.
			cw.SetEvictHook(unregisterHook(metaURL, i))
			cl.workers = append(cl.workers, cw)
			workerURLs = append(workerURLs, p.serve("worker", cw.Handler()))
		}
		f, err := distserve.NewFrontend(distserve.FrontendConfig{
			Dataset: p.st.ds, Variant: ranking.VariantBase,
			MetaURL: metaURL, CacheWorkers: workerURLs, Policy: p.w.policy,
		})
		if err != nil {
			return err
		}
		cl.frontend = f
		p.cells = append(p.cells, cl)
		p.closers = append(p.closers, f.Close)
		fronts = append(fronts, p.serve("frontend", f.Handler()))
	}
	r, err := routing.NewRouter(routing.RouterConfig{Frontends: fronts})
	if err != nil {
		return err
	}
	p.router = r
	p.closers = append(p.closers, r.Close)
	p.url = p.serve("router", r.Handler())
	return nil
}

func unregisterHook(metaURL string, worker int) func(key string) {
	client := &http.Client{Timeout: 2 * time.Second}
	return func(key string) {
		kind, id, err := distserve.ParseCacheKey(key)
		if err != nil {
			return
		}
		body, err := json.Marshal(distserve.RegisterRequest{
			EntryRef: distserve.EntryRef{Kind: kind, ID: id}, Worker: worker,
		})
		if err != nil {
			return
		}
		// A lost un-register only leaves a stale binding the next fetch's 404
		// cleans up, so the error is dropped as batdist drops it.
		if resp, err := client.Post(metaURL+"/v1/unregister", "application/json", bytes.NewReader(body)); err == nil {
			resp.Body.Close()
		}
	}
}

func (p *plane) buildLocal() error {
	srv, err := server.New(server.Config{
		Dataset: p.st.ds, Variant: ranking.VariantBase,
		MaxUserCaches: p.w.maxUserCaches, PrecomputeItems: p.w.precomputeItems, Policy: p.w.policy,
		WindowPolicy: p.w.windowPolicy,
	})
	if err != nil {
		return err
	}
	p.srv = srv
	p.closers = append(p.closers, srv.Close)
	if !p.w.open {
		p.url = p.serve("server", srv.Handler())
	}
	return nil
}

func (p *plane) warm() error {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	for _, req := range p.st.warmRequests(p.w) {
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		resp, err := p.rank(client, req, body)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if resp.Degraded {
			return fmt.Errorf("warm-up: user %d served degraded (%s)", req.UserID, resp.DegradeReason)
		}
	}
	return p.settle()
}

// settle waits for write-behind stores to land and refreshes the router's
// residency view, so a phase starts from the pool state its predecessor left.
func (p *plane) settle() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, c := range p.cells {
		if err := c.frontend.FlushStores(ctx); err != nil {
			return fmt.Errorf("flush stores: %w", err)
		}
	}
	if p.router != nil {
		p.router.PollNow()
	}
	return nil
}

func (p *plane) close() {
	for i := len(p.closers) - 1; i >= 0; i-- {
		p.closers[i]()
	}
	p.closers = nil
	// The program's own clients (frontend → meta/workers, router → frontends)
	// share http.DefaultTransport; drop their connections to the closed servers.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// newHTTPClient is one load-generator client: its own transport, so each
// closed-loop client holds exactly one connection.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 30 * time.Second}
}

// rank issues one request the way the workload's callers do: an HTTP POST to
// the entry point, or a direct Server.RankCtx for the open-loop workload. Any
// outcome but a decoded 200 response is an error.
func (p *plane) rank(client *http.Client, req serving.RankRequest, body []byte) (*serving.RankResponse, error) {
	if p.url == "" {
		return p.srv.RankCtx(context.Background(), req)
	}
	hr, err := client.Post(p.url+"/v1/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, hr.Body) // drain so the connection is reused
		return nil, fmt.Errorf("rank: status %d", hr.StatusCode)
	}
	var out serving.RankResponse
	if err := json.NewDecoder(hr.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("rank: decode response: %w", err)
	}
	return &out, nil
}
