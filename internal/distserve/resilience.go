package distserve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"bat/internal/routing"
)

// The transfer engine is the layer §3.3/§5 lean on: KV payloads must move
// between cache workers quickly, and when a worker is slow or dead the
// frontend must degrade to recompute — never stall. transferClient wraps the
// frontend's http.Client with per-attempt timeouts, bounded retries with
// jittered exponential backoff (idempotent GETs only), and a per-target
// circuit breaker so a dead worker is skipped immediately instead of being
// re-probed on every request.

// Transfer defaults; all overridable through TransferConfig.
const (
	defaultTransferTimeout  = 2 * time.Second
	defaultMaxRetries       = 2
	defaultBackoffBase      = 25 * time.Millisecond
	defaultBackoffMax       = 250 * time.Millisecond
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 2 * time.Second
	defaultFetchConcurrency = 16
	defaultStoreQueueDepth  = 256
	defaultStoreWorkers     = 2
)

// maxMetaResponse caps the buffered (non-streaming) endpoints' response
// bodies — meta JSON and stats are a few KB; anything past 1MiB is a
// misbehaving peer, rejected before it can balloon the frontend's heap. KV
// payloads never pass through this path: they stream through getStream and
// are bounded by the codec's own header caps.
const maxMetaResponse = 1 << 20

// TransferConfig tunes the frontend's transfer engine. The zero value means
// "use defaults"; negative MaxRetries disables retries and negative
// BreakerThreshold disables the circuit breaker.
type TransferConfig struct {
	// Timeout bounds each transfer attempt (and is the default client
	// timeout when no custom http.Client is supplied).
	Timeout time.Duration
	// MaxRetries is the number of extra attempts for idempotent GETs.
	MaxRetries int
	// BackoffBase/BackoffMax bound the jittered exponential retry backoff.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// target's circuit breaker open.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// single half-open probe is allowed through.
	BreakerCooldown time.Duration
	// FetchConcurrency bounds the parallel per-candidate item cache
	// fetches issued by one Rank call (1 = serial).
	FetchConcurrency int
	// JitterSeed seeds the transfer engine's locally-owned retry-jitter RNG
	// (0 = seed from the clock). Fault-injection tests set it so backoff
	// sequences replay deterministically.
	JitterSeed int64
	// StoreQueueDepth bounds the frontend's write-behind store queue (0 =
	// default 256; negative = synchronous stores at the batch boundary, the
	// pre-write-behind behavior).
	StoreQueueDepth int
	// StoreWorkers is the write-behind store concurrency (default 2).
	StoreWorkers int
	// HedgeQuantile picks the fetch-stage latency quantile whose observed
	// value arms the hedged-read timer: when a replica fetch has at least one
	// fallback location and the first attempt is still in flight after that
	// long, a second fetch races it to the next replica. 0 = default 0.99;
	// negative disables hedging. Hedging never fires while the fetch-stage
	// histogram is empty (cold start has no signal to derive a delay from).
	HedgeQuantile float64
}

func (c TransferConfig) withDefaults() TransferConfig {
	if c.Timeout <= 0 {
		c.Timeout = defaultTransferTimeout
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = defaultMaxRetries
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = defaultBackoffBase
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = defaultBackoffMax
		if c.BackoffMax < c.BackoffBase {
			c.BackoffMax = c.BackoffBase
		}
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = defaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = defaultBreakerCooldown
	}
	if c.FetchConcurrency <= 0 {
		c.FetchConcurrency = defaultFetchConcurrency
	}
	if c.StoreQueueDepth == 0 {
		c.StoreQueueDepth = defaultStoreQueueDepth
	}
	if c.StoreWorkers <= 0 {
		c.StoreWorkers = defaultStoreWorkers
	}
	return c
}

// errBreakerOpen reports a transfer skipped because the target's breaker is
// open; the caller treats it like any other fetch failure (a cache miss).
var errBreakerOpen = errors.New("distserve: circuit breaker open")

// Breaker states, reported through WorkerHealth.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// targetState is one remote endpoint's health: breaker state plus counters.
type targetState struct {
	mu          sync.Mutex
	name        string
	state       string
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	requests     int64
	errors       int64
	breakerSkips int64
	totalLatency time.Duration
	lastError    string
}

// admit decides whether a request may go to this target. probe reports that
// the caller holds the single half-open probe slot.
func (ts *targetState) admit(threshold int, cooldown time.Duration, now time.Time) (probe, ok bool) {
	if threshold < 0 {
		return false, true
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	switch ts.state {
	case breakerOpen:
		if now.Sub(ts.openedAt) >= cooldown {
			ts.state = breakerHalfOpen
			ts.probing = true
			return true, true
		}
		ts.breakerSkips++
		return false, false
	case breakerHalfOpen:
		if ts.probing {
			ts.breakerSkips++
			return false, false
		}
		ts.probing = true
		return true, true
	default:
		return false, true
	}
}

// record settles one attempt's outcome into the breaker and the counters.
func (ts *targetState) record(threshold int, now time.Time, latency time.Duration, probe, success bool, errText string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.requests++
	ts.totalLatency += latency
	if success {
		ts.consecFails = 0
		ts.state = breakerClosed
		ts.probing = false
		return
	}
	ts.errors++
	ts.lastError = errText
	ts.consecFails++
	if threshold < 0 {
		return
	}
	if probe || ts.state == breakerHalfOpen || (ts.state == breakerClosed && ts.consecFails >= threshold) {
		ts.state = breakerOpen
		ts.openedAt = now
		ts.probing = false
	}
}

func (ts *targetState) health() WorkerHealth {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	h := WorkerHealth{
		Target:       ts.name,
		Requests:     ts.requests,
		Errors:       ts.errors,
		BreakerSkips: ts.breakerSkips,
		Breaker:      ts.state,
		LastError:    ts.lastError,
	}
	if ts.requests > 0 {
		h.AvgLatencyMs = float64(ts.totalLatency.Milliseconds()) / float64(ts.requests)
	}
	return h
}

// WorkerHealth is one transfer target's slice of FrontendStats.
type WorkerHealth struct {
	Target       string  `json:"target"` // "worker-N" or "meta"
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	BreakerSkips int64   `json:"breaker_skips"`
	AvgLatencyMs float64 `json:"avg_latency_ms"`
	Breaker      string  `json:"breaker"`
	LastError    string  `json:"last_error,omitempty"`
	// Draining marks a cache worker mid graceful drain: it still serves
	// reads but stores route elsewhere. Filled by the frontend; always false
	// for the meta target.
	Draining bool `json:"draining,omitempty"`
}

// transferClient is the fault-tolerant transfer engine. Targets 0..N-1 are
// the cache workers; target N is the meta service.
type transferClient struct {
	http    *http.Client
	cfg     TransferConfig
	now     func() time.Time
	targets []*targetState

	// rng is the locally-owned jitter source (never the package-global
	// rand): seeding it makes retry schedules replayable in fault tests and
	// keeps concurrent engines from contending on one shared lock.
	rngMu sync.Mutex
	rng   *rand.Rand
}

func newTransferClient(client *http.Client, cfg TransferConfig, workers int) *transferClient {
	cfg = cfg.withDefaults()
	seed := cfg.JitterSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t := &transferClient{
		http:    client,
		cfg:     cfg,
		now:     time.Now,
		rng:     rand.New(rand.NewSource(seed)),
		targets: make([]*targetState, workers+1),
	}
	for i := 0; i < workers; i++ {
		t.targets[i] = &targetState{name: fmt.Sprintf("worker-%d", i), state: breakerClosed}
	}
	t.targets[workers] = &targetState{name: "meta", state: breakerClosed}
	return t
}

// metaTarget is the breaker slot for the meta service.
func (t *transferClient) metaTarget() int { return len(t.targets) - 1 }

// get issues an idempotent GET with retries, backoff, and breaker checks.
// It returns the status code, the fully-read body, and how many attempts the
// engine spent (for fetch-span tagging); non-2xx statuses below 500 are
// returned to the caller (a 404 is information, not a fault). The body is
// buffered with a Content-Length-sized preallocation and capped at
// maxMetaResponse — this path serves only the small-JSON endpoints; KV
// payloads go through getStream.
func (t *transferClient) get(ctx context.Context, target int, url string) (int, []byte, int, error) {
	return t.roundTrip(ctx, target, true, func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, url, nil)
	})
}

// send issues a single-attempt (non-idempotent) request with a body.
func (t *transferClient) send(ctx context.Context, target int, method, url, contentType string, payload []byte) (int, []byte, error) {
	return t.sendHeader(ctx, target, method, url, contentType, nil, payload)
}

// sendHeader is send with extra request headers (the delta-store PATCH
// carries its prefix checksum in one).
func (t *transferClient) sendHeader(ctx context.Context, target int, method, url, contentType string, header http.Header, payload []byte) (int, []byte, error) {
	status, body, _, err := t.roundTrip(ctx, target, false, func() (*http.Request, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		for k, vs := range header {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		return req, nil
	})
	return status, body, err
}

func (t *transferClient) roundTrip(ctx context.Context, target int, idempotent bool, build func() (*http.Request, error)) (int, []byte, int, error) {
	ts := t.targets[target]
	attempts := 1
	if idempotent && t.cfg.MaxRetries > 0 {
		attempts += t.cfg.MaxRetries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(t.backoff(i)):
			case <-ctx.Done():
				return 0, nil, i, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, nil, i, err
		}
		probe, ok := ts.admit(t.cfg.BreakerThreshold, t.cfg.BreakerCooldown, t.now())
		if !ok {
			return 0, nil, i, errBreakerOpen
		}
		status, body, err := t.attempt(ctx, probe, ts, build)
		if err != nil {
			lastErr = err
			continue
		}
		if status >= http.StatusInternalServerError {
			lastErr = fmt.Errorf("distserve: %s returned status %d", ts.name, status)
			continue
		}
		return status, body, i + 1, nil
	}
	return 0, nil, attempts, lastErr
}

// attempt runs one bounded try and settles it into the target's health.
func (t *transferClient) attempt(ctx context.Context, probe bool, ts *targetState, build func() (*http.Request, error)) (int, []byte, error) {
	req, err := build()
	if err != nil {
		return 0, nil, err
	}
	actx, cancel := context.WithTimeout(ctx, t.cfg.Timeout)
	defer cancel()
	start := t.now()
	resp, err := t.http.Do(req.WithContext(actx))
	var (
		status int
		body   []byte
	)
	if err == nil {
		status = resp.StatusCode
		body, err = readBodyCapped(resp.Body, resp.ContentLength, maxMetaResponse)
		resp.Body.Close()
	}
	latency := t.now().Sub(start)
	success := err == nil && status < http.StatusInternalServerError
	errText := ""
	if err != nil {
		errText = err.Error()
	} else if !success {
		errText = fmt.Sprintf("status %d", status)
	}
	ts.record(t.cfg.BreakerThreshold, t.now(), latency, probe, success, errText)
	if err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// errBodyOverCap marks a body rejected for exceeding its endpoint's byte cap
// (declared via Content-Length or discovered mid-read), so handlers can map
// it to a storage-full status instead of a generic bad request.
var errBodyOverCap = errors.New("distserve: body exceeds cap")

// readBodyCapped buffers a request or response body, preallocating from
// Content-Length instead of letting io.ReadAll grow geometrically, and
// rejecting any body over the endpoint's cap (declared or discovered).
func readBodyCapped(r io.Reader, contentLength, limit int64) ([]byte, error) {
	if contentLength > limit {
		return nil, fmt.Errorf("%w: declared %d bytes, cap %d", errBodyOverCap, contentLength, limit)
	}
	n := contentLength
	if n < 0 {
		n = 512
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	read, err := io.Copy(buf, io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if read > limit {
		return nil, fmt.Errorf("%w: cap %d", errBodyOverCap, limit)
	}
	return buf.Bytes(), nil
}

// getStream issues an idempotent GET whose body the caller consumes as a
// stream — the receive-overlap fetch path: decode starts at the first layer
// frame while later frames are still in flight. Retries (with backoff and
// breaker checks) apply only until response headers arrive; once a body is
// handed out the attempt's breaker outcome settles at Close, charging any
// mid-stream read failure (truncation, reset, timeout) to the target. The
// caller must Close the returned body exactly once, even on non-200 statuses.
func (t *transferClient) getStream(ctx context.Context, target int, url string) (status int, contentLength int64, body io.ReadCloser, tries int, err error) {
	ts := t.targets[target]
	attempts := 1
	if t.cfg.MaxRetries > 0 {
		attempts += t.cfg.MaxRetries
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			select {
			case <-time.After(t.backoff(i)):
			case <-ctx.Done():
				return 0, 0, nil, i, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return 0, 0, nil, i, err
		}
		probe, ok := ts.admit(t.cfg.BreakerThreshold, t.cfg.BreakerCooldown, t.now())
		if !ok {
			return 0, 0, nil, i, errBreakerOpen
		}
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			ts.record(t.cfg.BreakerThreshold, t.now(), 0, probe, false, err.Error())
			return 0, 0, nil, i + 1, err
		}
		actx, cancel := context.WithTimeout(ctx, t.cfg.Timeout)
		start := t.now()
		resp, err := t.http.Do(req.WithContext(actx))
		if err != nil {
			cancel()
			ts.record(t.cfg.BreakerThreshold, t.now(), t.now().Sub(start), probe, false, err.Error())
			lastErr = err
			continue
		}
		if resp.StatusCode >= http.StatusInternalServerError {
			routing.DrainBody(resp.Body)
			resp.Body.Close()
			cancel()
			ts.record(t.cfg.BreakerThreshold, t.now(), t.now().Sub(start), probe, false, fmt.Sprintf("status %d", resp.StatusCode))
			lastErr = fmt.Errorf("distserve: %s returned status %d", ts.name, resp.StatusCode)
			continue
		}
		tb := &trackedBody{rc: resp.Body, cancel: cancel, t: t, ts: ts, probe: probe, start: start}
		return resp.StatusCode, resp.ContentLength, tb, i + 1, nil
	}
	return 0, 0, nil, attempts, lastErr
}

// trackedBody wraps a streaming response body so the breaker attempt settles
// exactly once, at Close, with the full receive latency and any read error
// observed mid-stream.
type trackedBody struct {
	rc      io.ReadCloser
	cancel  context.CancelFunc
	t       *transferClient
	ts      *targetState
	probe   bool
	start   time.Time
	readErr error
	closed  bool
}

func (b *trackedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if err != nil && err != io.EOF && b.readErr == nil {
		b.readErr = err
	}
	return n, err
}

func (b *trackedBody) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	err := b.rc.Close()
	b.cancel()
	success := b.readErr == nil
	errText := ""
	if b.readErr != nil {
		errText = b.readErr.Error()
	}
	b.ts.record(b.t.cfg.BreakerThreshold, b.t.now(), b.t.now().Sub(b.start), b.probe, success, errText)
	return err
}

// backoff returns the jittered exponential delay before retry attempt i (≥1).
func (t *transferClient) backoff(i int) time.Duration {
	d := t.cfg.BackoffBase << uint(i-1)
	if d > t.cfg.BackoffMax || d <= 0 {
		d = t.cfg.BackoffMax
	}
	t.rngMu.Lock()
	jitter := t.rng.Float64()
	t.rngMu.Unlock()
	// Jitter in [0.5d, 1.5d) decorrelates synchronized retry storms.
	return time.Duration(float64(d) * (0.5 + jitter))
}

// openWorkerBreakers counts cache workers (the meta slot excluded) whose
// circuit breaker is currently open — the overload ladder's pool-health
// signal.
func (t *transferClient) openWorkerBreakers() int {
	open := 0
	for _, ts := range t.targets[:len(t.targets)-1] {
		ts.mu.Lock()
		if ts.state == breakerOpen {
			open++
		}
		ts.mu.Unlock()
	}
	return open
}

// health snapshots every target, workers first, meta last.
func (t *transferClient) health() []WorkerHealth {
	out := make([]WorkerHealth, len(t.targets))
	for i, ts := range t.targets {
		out[i] = ts.health()
	}
	return out
}

// ParseCacheKey splits a cache worker key ("user/5", "item/42") into the
// meta service's wire fields. Eviction hooks use it to unregister entries.
func ParseCacheKey(key string) (kind string, id uint64, err error) {
	i := strings.IndexByte(key, '/')
	if i < 0 {
		return "", 0, fmt.Errorf("distserve: malformed cache key %q", key)
	}
	kind = key[:i]
	if kind != "user" && kind != "item" {
		return "", 0, fmt.Errorf("distserve: unknown entry kind in key %q", key)
	}
	id, err = strconv.ParseUint(key[i+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("distserve: malformed cache key %q: %v", key, err)
	}
	return kind, id, nil
}
