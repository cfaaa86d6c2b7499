package routing

// Router is the sharded frontend tier: one cheap process in front of N
// frontend replicas. It does cluster-level admission (the same
// admit/queue/shed ladder the frontends run per-replica), scores every rank
// request across the live frontends with the shared Pipeline — cache
// affinity from each frontend's /v1/load residency summary, least-loaded
// from its in-flight/queue gauges — and proxies to the winner, failing over
// to the next-best frontend when one dies mid-request. The same Pipeline
// drives the cluster simulator, so simulated and live routing policy are one
// body of code.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"bat/internal/admission"
	"bat/internal/metrics"
)

// RouterConfig configures a Router. Zero values take defaults.
type RouterConfig struct {
	// Frontends are the base URLs of the frontend replicas to route over.
	Frontends []string
	// Scorers is the routing pipeline (nil = DefaultScorers()).
	Scorers []Weighted
	// Seed fixes the pipeline's round-robin phase for reproducible runs.
	Seed uint64
	// Admission is the cluster-level admission config (zero = defaults).
	Admission admission.Config
	// Client is the HTTP client for polling and proxying. A client without
	// a Transport (or nil) rides the router's own keep-alive transport,
	// sized to the admission in-flight bound plus the poller and closed by
	// Close; a client with a Transport is used as is.
	Client *http.Client
	// PollInterval is the /v1/load poll cadence (0 = 500ms; negative =
	// never poll in the background — tests and benches call PollNow).
	PollInterval time.Duration
	// FailAfter is how many consecutive failures mark a frontend dead
	// (0 = 2).
	FailAfter int
	// MaxBody bounds request and proxied response bodies (0 = 1MiB).
	MaxBody int64
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.PollInterval == 0 {
		c.PollInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	return c
}

// frontendLoad mirrors the frontend's GET /v1/load payload. Declared here
// rather than imported so the routing package stays below distserve in the
// dependency order.
type frontendLoad struct {
	InFlight      int    `json:"in_flight"`
	QueueDepth    int    `json:"queue_depth"`
	MaxInFlight   int    `json:"max_in_flight"`
	MaxQueue      int    `json:"max_queue"`
	Requests      int64  `json:"requests"`
	ResidentUsers int    `json:"resident_users"`
	Users         string `json:"users"`
}

// frontendState is the router's view of one frontend replica.
type frontendState struct {
	url string

	mu            sync.Mutex
	alive         bool
	failures      int
	load          float64 // normalized (in-flight+queued)/capacity, [0,1]
	residentUsers int
	summary       *Summary
	requests      int64
}

func (s *frontendState) snapshot() (alive bool, load float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alive, s.load
}

// resident reports whether the frontend's last residency summary (plus any
// optimistic additions since) claims the key.
func (s *frontendState) resident(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.summary != nil && s.summary.Contains(key)
}

// FrontendStatus is one frontend's row in the router's /v1/stats payload.
type FrontendStatus struct {
	URL           string  `json:"url"`
	Alive         bool    `json:"alive"`
	Load          float64 `json:"load"`
	ResidentUsers int     `json:"resident_users"`
	Requests      int64   `json:"requests"`
}

// RouterStats is the GET /v1/stats payload.
type RouterStats struct {
	Admission admission.Stats  `json:"admission"`
	Frontends []FrontendStatus `json:"frontends"`
	Decisions map[string]int64 `json:"decisions"`
	Failovers int64            `json:"failovers"`
	Proxied   int64            `json:"proxied"`
	NoBackend int64            `json:"no_backend"`
}

// Router routes rank requests across frontend replicas.
type Router struct {
	cfg    RouterConfig
	pipe   *Pipeline
	ctl    *admission.Controller
	reg    *metrics.Registry
	fronts []*frontendState
	// transport is the keep-alive transport the router built for itself
	// (nil when RouterConfig.Client brought its own).
	transport *http.Transport

	decMu     sync.Mutex
	decisions map[string]int64

	failovers *metrics.Counter
	proxied   *metrics.Counter
	noBackend *metrics.Counter

	stop chan struct{}
	done chan struct{}
}

// NewRouter builds a router over cfg.Frontends, performs one synchronous
// poll so routing starts informed, and (unless PollInterval is negative)
// begins polling /v1/load in the background.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Frontends) == 0 {
		return nil, fmt.Errorf("routing: no frontends configured")
	}
	scorers := cfg.Scorers
	if len(scorers) == 0 {
		scorers = DefaultScorers()
	}
	r := &Router{
		cfg:       cfg,
		pipe:      NewPipeline(cfg.Seed, scorers...),
		ctl:       admission.NewController(cfg.Admission),
		reg:       metrics.NewRegistry(),
		decisions: make(map[string]int64),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i, u := range cfg.Frontends {
		st := &frontendState{url: u, alive: true}
		r.fronts = append(r.fronts, st)
		idx := i
		r.reg.GaugeFunc(fmt.Sprintf("bat_router_frontend_alive{frontend=%q}", u), func() float64 {
			alive, _ := r.fronts[idx].snapshot()
			if alive {
				return 1
			}
			return 0
		})
		r.reg.GaugeFunc(fmt.Sprintf("bat_router_frontend_load{frontend=%q}", u), func() float64 {
			_, load := r.fronts[idx].snapshot()
			return load
		})
	}
	r.failovers = r.reg.Counter("bat_route_failovers_total")
	r.proxied = r.reg.Counter("bat_router_proxied_total")
	r.noBackend = r.reg.Counter("bat_router_no_backend_total")
	// At most MaxInFlight proxied requests plus one poll are in flight to a
	// frontend at once; keeping that many idle connections per frontend
	// means no proxied request ever waits on a dial in steady state.
	dials := r.reg.Counter(`bat_transfer_dials_total{target="frontend"}`)
	r.cfg.Client, r.transport = OwnedClient(cfg.Client, r.ctl.Config().MaxInFlight+1,
		func(string) { dials.Inc() })
	r.PollNow()
	go r.pollLoop()
	return r, nil
}

// Scorers returns the active pipeline's weighted scorers, in configured
// order.
func (r *Router) Scorers() []Weighted { return r.pipe.Scorers() }

// Close stops the background poller and closes the idle connections of the
// router's own transport.
func (r *Router) Close() {
	close(r.stop)
	<-r.done
	if r.transport != nil {
		r.transport.CloseIdleConnections()
	}
}

func (r *Router) pollLoop() {
	defer close(r.done)
	if r.cfg.PollInterval < 0 {
		<-r.stop
		return
	}
	t := time.NewTicker(r.cfg.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.PollNow()
		}
	}
}

// PollNow refreshes every frontend's load snapshot synchronously. Exported
// so tests and benches can drive the poll clock themselves.
func (r *Router) PollNow() {
	for _, st := range r.fronts {
		r.pollOne(st)
	}
}

func (r *Router) pollOne(st *frontendState) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.PollInterval.Abs()+2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.url+"/v1/load", nil)
	if err != nil {
		r.markFailure(st)
		return
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		r.markFailure(st)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.markFailure(st)
		return
	}
	var snap frontendLoad
	if err := json.NewDecoder(io.LimitReader(resp.Body, r.cfg.MaxBody)).Decode(&snap); err != nil {
		r.markFailure(st)
		return
	}
	DrainBody(resp.Body)
	var sum *Summary
	if snap.Users != "" {
		if s, err := DecodeSummary(snap.Users); err == nil {
			sum = s
		}
	}
	cap := snap.MaxInFlight + snap.MaxQueue
	load := 0.0
	if cap > 0 {
		load = float64(snap.InFlight+snap.QueueDepth) / float64(cap)
	}
	st.mu.Lock()
	st.alive, st.failures = true, 0
	st.load = load
	st.residentUsers = snap.ResidentUsers
	if sum != nil {
		st.summary = sum
	}
	st.requests = snap.Requests
	st.mu.Unlock()
}

// markFailure counts one failed interaction; FailAfter consecutive failures
// mark the frontend dead until a poll succeeds again.
func (r *Router) markFailure(st *frontendState) {
	st.mu.Lock()
	st.failures++
	if st.failures >= r.cfg.FailAfter {
		st.alive = false
	}
	st.mu.Unlock()
}

// candidates builds the pipeline's view of the frontends, masking any in
// skip (mid-request failover exclusions).
func (r *Router) candidates(skip map[int]bool) []Candidate {
	cands := make([]Candidate, len(r.fronts))
	for i, st := range r.fronts {
		alive, load := st.snapshot()
		s := st
		cands[i] = Candidate{
			Index:    i,
			Alive:    alive && !skip[i],
			Load:     load,
			Resident: func(key uint64) bool { return s.resident(key) },
		}
	}
	return cands
}

func (r *Router) countDecision(scorer string) {
	r.decMu.Lock()
	r.decisions[scorer]++
	r.decMu.Unlock()
	r.reg.Counter(fmt.Sprintf("bat_route_decisions_total{scorer=%q}", scorer)).Inc()
}

// Handler exposes the router API: POST /v1/rank (scored proxy to a
// frontend), GET /v1/stats, GET /metrics, and /healthz.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/rank", r.handleRank)
	mux.HandleFunc("/v1/stats", r.handleStats)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.reg.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (r *Router) handleRank(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	deadline := r.ctl.Deadline(req)
	ctx, cancel := context.WithTimeout(req.Context(), deadline)
	defer cancel()

	grant, err := r.ctl.Acquire(ctx)
	if err != nil {
		reason := admission.ReasonQueueFull
		if err == admission.ErrDeadline {
			reason = admission.ReasonDeadline
		}
		r.ctl.Shed(w, reason)
		return
	}
	defer grant.Release()

	body, err := io.ReadAll(io.LimitReader(req.Body, r.cfg.MaxBody))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	var rank struct {
		UserID int64 `json:"user_id"`
	}
	if err := json.Unmarshal(body, &rank); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	userKey := EntryHash("user", uint64(rank.UserID))

	skip := make(map[int]bool)
	for attempt := 0; attempt < len(r.fronts); attempt++ {
		dec, ok := r.pipe.Pick(Request{Key: userKey}, r.candidates(skip))
		if !ok {
			break
		}
		r.countDecision(dec.Scorer)
		st := r.fronts[dec.Index]
		resp, perr := r.forward(ctx, st, req, body)
		if perr != nil {
			// Transport-level death: mark, exclude, re-score the rest.
			skip[dec.Index] = true
			r.markFailure(st)
			r.failovers.Inc()
			continue
		}
		if resp.status == http.StatusOK {
			// Optimistic residency: the frontend just served (and cached)
			// this user — make affinity see it before the next poll.
			st.mu.Lock()
			if st.summary == nil {
				st.summary = NewSummary(0)
			}
			st.summary.Add(userKey)
			st.mu.Unlock()
		}
		r.proxied.Inc()
		for k, vs := range resp.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.status)
		w.Write(resp.body)
		return
	}
	r.noBackend.Inc()
	http.Error(w, "no live frontend", http.StatusBadGateway)
}

// proxiedResponse is a fully buffered upstream response: buffering lets the
// router fail over on transport errors without having committed a status to
// the client.
type proxiedResponse struct {
	status int
	header http.Header
	body   []byte
}

func (r *Router) forward(ctx context.Context, st *frontendState, orig *http.Request, body []byte) (*proxiedResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+"/v1/rank", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if d := orig.Header.Get(admission.DeadlineHeader); d != "" {
		req.Header.Set(admission.DeadlineHeader, d)
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, r.cfg.MaxBody))
	if err != nil {
		return nil, err
	}
	return &proxiedResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: out}, nil
}

// Stats snapshots the router.
func (r *Router) Stats() RouterStats {
	st := RouterStats{
		Admission: r.ctl.Stats(),
		Decisions: make(map[string]int64),
		Failovers: r.failovers.Value(),
		Proxied:   r.proxied.Value(),
		NoBackend: r.noBackend.Value(),
	}
	r.decMu.Lock()
	for k, v := range r.decisions {
		st.Decisions[k] = v
	}
	r.decMu.Unlock()
	for _, f := range r.fronts {
		f.mu.Lock()
		st.Frontends = append(st.Frontends, FrontendStatus{
			URL:           f.url,
			Alive:         f.alive,
			Load:          f.load,
			ResidentUsers: f.residentUsers,
			Requests:      f.requests,
		})
		f.mu.Unlock()
	}
	return st
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Stats())
}
