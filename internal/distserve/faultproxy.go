package distserve

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// FaultMode selects how a FaultProxy mistreats requests.
type FaultMode int

const (
	// FaultNone forwards transparently.
	FaultNone FaultMode = iota
	// FaultDelay sleeps for the configured delay, then forwards.
	FaultDelay
	// FaultError replies 500 without touching the backend.
	FaultError
	// FaultHang never replies until the client gives up or the proxy is
	// released — a wedged-but-accepting worker.
	FaultHang
	// FaultDrop severs the connection mid-request with no response bytes.
	FaultDrop
)

// FaultProxy sits in front of one component (cache worker or meta service)
// and injects faults on demand: the test double for slow, dead, and flaky
// nodes that §3.3's transfer engine must survive. Mode switches take effect
// per request and are safe under concurrency.
type FaultProxy struct {
	backend string
	client  *http.Client

	mu       sync.Mutex
	mode     FaultMode
	delay    time.Duration
	requests int64

	release   chan struct{}
	closeOnce sync.Once
}

// NewFaultProxy builds a transparent proxy for the backend base URL.
func NewFaultProxy(backendURL string) *FaultProxy {
	return &FaultProxy{
		backend: backendURL,
		client:  &http.Client{},
		release: make(chan struct{}),
	}
}

// SetMode switches the injected fault; delay only matters for FaultDelay.
func (p *FaultProxy) SetMode(mode FaultMode, delay time.Duration) {
	p.mu.Lock()
	p.mode = mode
	p.delay = delay
	p.mu.Unlock()
}

// Requests counts requests that reached the proxy (including faulted ones).
func (p *FaultProxy) Requests() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests
}

// Release unblocks any handlers parked in FaultHang.
func (p *FaultProxy) Release() {
	p.closeOnce.Do(func() { close(p.release) })
}

// Handler exposes the proxy as an http.Handler.
func (p *FaultProxy) Handler() http.Handler { return p }

// ServeHTTP applies the current fault, then (for None/Delay) forwards the
// request verbatim and copies the backend's response back.
func (p *FaultProxy) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.requests++
	mode, delay := p.mode, p.delay
	p.mu.Unlock()

	switch mode {
	case FaultError:
		http.Error(rw, "injected fault", http.StatusInternalServerError)
		return
	case FaultHang:
		select {
		case <-r.Context().Done():
		case <-p.release:
		}
		return
	case FaultDrop:
		panic(http.ErrAbortHandler) // net/http closes the connection uncleanly
	case FaultDelay:
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
	}

	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.backend+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	// Lengths pass through both ways (the response's rides the header copy
	// below), so a proxied KV payload is no more chunked than a direct one.
	req.ContentLength = r.ContentLength
	resp, err := p.client.Do(req)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			rw.Header().Add(k, v)
		}
	}
	rw.WriteHeader(resp.StatusCode)
	io.Copy(rw, resp.Body)
}
