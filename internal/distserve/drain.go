package distserve

// Graceful drain: POST /v1/drain tells a cache worker to stop accepting
// stores, stream every entry it holds to surviving peers, register the moves
// in the meta service, and deregister itself — so a planned restart loses
// nothing. The worker replays the frontend's own replica walk (the shared
// routing ring over the peer list the drain request carries), which is what
// guarantees drained entries land exactly where the frontend's routing will
// look for them.
//
// Entries move as a bulk stream of length-prefixed frames over one
// POST /v1/bulk per target peer:
//
//	uint32 keyLen | key | uint32 payloadLen | payload   (little-endian)
//
// Each payload is a complete BKV2 blob, validated against its own wire
// header before it is stored, so a truncated or corrupt stream can never
// install a partial cache.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"

	"bat/internal/model"

	"bat/internal/routing"
)

// maxBulkKeyLen bounds bulk-frame keys; real keys are "user/123456" sized.
const maxBulkKeyLen = 128

// DrainPeer is one pool member as the draining worker should see it.
type DrainPeer struct {
	URL string `json:"url"`
	// Alive marks peers that may receive drained entries (live, not
	// draining, not the drain target itself).
	Alive bool `json:"alive"`
}

// DrainRequest tells a worker to drain itself. The peer list is the
// frontend's full worker slice in index order — the draining worker replays
// the frontend's replica walk over it, so both sides agree on placement.
type DrainRequest struct {
	Self        int         `json:"self"`
	Peers       []DrainPeer `json:"peers"`
	MetaURL     string      `json:"meta_url"`
	Replication int         `json:"replication"`
}

// DrainResponse reports a completed drain.
type DrainResponse struct {
	// Moved counts entries accepted by at least one peer (and deleted
	// locally); Copies counts total accepted replicas across peers.
	Moved  int   `json:"moved"`
	Copies int   `json:"copies"`
	Bytes  int64 `json:"bytes"`
	// Errors counts failed per-peer bulk pushes; Skipped counts entries with
	// no routable peer (they stay local and readable).
	Errors  int `json:"errors"`
	Skipped int `json:"skipped"`
}

// BulkResponse reports a bulk ingest: frames stored, plus the keys the
// worker refused (over capacity) so the sender keeps those entries.
type BulkResponse struct {
	Stored   int      `json:"stored"`
	Rejected []string `json:"rejected,omitempty"`
}

// bulkEntry is one (key, payload) pair moving through a drain.
type bulkEntry struct {
	key  string
	data []byte
}

// encodeBulkFrame writes one length-prefixed frame, returning bytes written.
func encodeBulkFrame(w io.Writer, key string, payload []byte) (int, error) {
	if len(key) == 0 || len(key) > maxBulkKeyLen {
		return 0, fmt.Errorf("distserve: bulk key length %d out of range", len(key))
	}
	var hdr [4]byte
	total := 0
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(key)))
	for _, chunk := range [][]byte{hdr[:], []byte(key)} {
		n, err := w.Write(chunk)
		total += n
		if err != nil {
			return total, err
		}
	}
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	for _, chunk := range [][]byte{hdr[:], payload} {
		n, err := w.Write(chunk)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// decodeBulkStream reads length-prefixed (key, payload) frames until EOF,
// validating each key as a well-formed cache key and each payload as a
// complete BKV2 blob before handing it to emit. Returns the frames emitted;
// a malformed frame aborts the stream with an error (frames already emitted
// stand — each was individually valid).
func decodeBulkStream(r io.Reader, maxPayload int64, emit func(key string, payload []byte)) (int, error) {
	var hdr [4]byte
	count := 0
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return count, nil
			}
			return count, fmt.Errorf("distserve: truncated bulk frame header: %v", err)
		}
		klen := binary.LittleEndian.Uint32(hdr[:])
		if klen == 0 || klen > maxBulkKeyLen {
			return count, fmt.Errorf("distserve: bulk key length %d out of range", klen)
		}
		key := make([]byte, klen)
		if _, err := io.ReadFull(r, key); err != nil {
			return count, fmt.Errorf("distserve: truncated bulk key: %v", err)
		}
		if _, _, err := ParseCacheKey(string(key)); err != nil {
			return count, err
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return count, fmt.Errorf("distserve: truncated bulk payload length: %v", err)
		}
		plen := binary.LittleEndian.Uint32(hdr[:])
		if plen == 0 || (maxPayload > 0 && int64(plen) > maxPayload) {
			return count, fmt.Errorf("distserve: bulk payload length %d out of range", plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(r, payload); err != nil {
			return count, fmt.Errorf("distserve: truncated bulk payload: %v", err)
		}
		wh, err := model.ParseWireHeader(payload)
		if err != nil {
			return count, fmt.Errorf("distserve: bulk payload rejected: %v", err)
		}
		if wh.PayloadSize() != len(payload) {
			return count, fmt.Errorf("distserve: bulk payload size %d does not match header (%d)", len(payload), wh.PayloadSize())
		}
		emit(string(key), payload)
		count++
	}
}

// drainTo executes the worker side of a drain: mark draining (stores now
// 503), snapshot entries, route each one with the frontend's replica walk,
// push per-target bulk streams, register the moves in meta, deregister
// self, and delete what moved. Entries that could not be placed anywhere
// stay local and readable.
func (w *CacheWorker) drainTo(r *http.Request, req DrainRequest) DrainResponse {
	ctx := r.Context()
	w.SetDraining(true)
	w.mu.Lock()
	snapshot := make([]bulkEntry, 0, len(w.entries))
	for k, e := range w.entries {
		snapshot = append(snapshot, bulkEntry{key: k, data: e.data})
	}
	w.mu.Unlock()
	sort.Slice(snapshot, func(i, j int) bool { return snapshot[i].key < snapshot[j].key })

	n := len(req.Peers)
	rf := req.Replication
	if rf < 1 {
		rf = 1
	}
	routable := func(i int) bool {
		return i >= 0 && i < n && i != req.Self && req.Peers[i].Alive && req.Peers[i].URL != ""
	}
	var resp DrainResponse
	perTarget := make(map[int][]bulkEntry)
	for _, e := range snapshot {
		kind, id, err := ParseCacheKey(e.key)
		if err != nil {
			resp.Skipped++
			continue
		}
		placed := false
		for _, t := range routing.NewRing(n).Replicas(routing.EntryHash(kind, id), rf, routable) {
			if !routable(t) {
				continue // the walk's unroutable-pool fallback slot
			}
			perTarget[t] = append(perTarget[t], e)
			placed = true
		}
		if !placed {
			resp.Skipped++
		}
	}

	// A drain is one bulk push per peer and two meta calls, one after the
	// other: a transport keeping one idle connection per host carries it,
	// and closes with the drain instead of lingering in the worker.
	client, transport := routing.OwnedClient(nil, 1, nil)
	defer transport.CloseIdleConnections()
	accepted := make(map[string]int, len(snapshot))
	var regs []RegisterRequest
	targets := make([]int, 0, len(perTarget))
	for t := range perTarget {
		targets = append(targets, t)
	}
	sort.Ints(targets)
	for _, t := range targets {
		ents := perTarget[t]
		res, sent, err := pushBulkStream(ctx, client, req.Peers[t].URL, ents)
		resp.Bytes += sent
		if err != nil {
			resp.Errors++
			continue
		}
		rejected := make(map[string]bool, len(res.Rejected))
		for _, k := range res.Rejected {
			rejected[k] = true
		}
		for _, e := range ents {
			if rejected[e.key] {
				continue
			}
			accepted[e.key]++
			kind, id, _ := ParseCacheKey(e.key)
			regs = append(regs, RegisterRequest{EntryRef: EntryRef{Kind: kind, ID: id}, Worker: t})
		}
	}

	// Register the new locations first, then drop this worker's bindings —
	// a reader racing the drain always finds at least one live location.
	drainRegisterBatch(ctx, client, req.MetaURL, regs)
	drainUnregisterSelf(ctx, client, req.MetaURL, req.Self)

	for key, copies := range accepted {
		if copies > 0 {
			w.Delete(key)
			resp.Moved++
		}
		resp.Copies += copies
	}
	w.mu.Lock()
	w.drains++
	w.mu.Unlock()
	return resp
}

// pushBulkStream streams one target's entries to its /v1/bulk through an
// io.Pipe, so the sender never buffers the whole batch, and returns the
// peer's per-key verdicts plus the bytes put on the wire.
func pushBulkStream(ctx context.Context, client *http.Client, peerURL string, ents []bulkEntry) (*BulkResponse, int64, error) {
	pr, pw := io.Pipe()
	var sent int64
	go func() {
		var err error
		for _, e := range ents {
			var n int
			n, err = encodeBulkFrame(pw, e.key, e.data)
			atomic.AddInt64(&sent, int64(n))
			if err != nil {
				break
			}
		}
		pw.CloseWithError(err)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peerURL+"/v1/bulk", pr)
	if err != nil {
		pr.Close()
		return nil, atomic.LoadInt64(&sent), err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return nil, atomic.LoadInt64(&sent), err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, atomic.LoadInt64(&sent), fmt.Errorf("distserve: bulk push returned status %d", resp.StatusCode)
	}
	var out BulkResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, atomic.LoadInt64(&sent), err
	}
	routing.DrainBody(resp.Body)
	return &out, atomic.LoadInt64(&sent), nil
}

// drainRegisterBatch binds moved entries to their new workers in one call.
func drainRegisterBatch(ctx context.Context, client *http.Client, metaURL string, regs []RegisterRequest) {
	if metaURL == "" || len(regs) == 0 {
		return
	}
	body, err := json.Marshal(RegisterBatchRequest{Entries: regs})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, metaURL+"/v1/register_batch", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// drainUnregisterSelf bulk-drops the draining worker's own meta bindings.
func drainUnregisterSelf(ctx context.Context, client *http.Client, metaURL string, self int) {
	if metaURL == "" {
		return
	}
	body, err := json.Marshal(UnregisterWorkerRequest{Worker: self, HotLimit: 1})
	if err != nil {
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, metaURL+"/v1/unregister_worker", bytes.NewReader(body))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// handleBulk ingests a drain stream: POST /v1/bulk with an octet-stream body
// of bulk frames. A draining worker refuses — drained entries must not land
// on another worker that is itself emptying out.
func (w *CacheWorker) handleBulk(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if w.Draining() {
		http.Error(rw, "draining", http.StatusServiceUnavailable)
		return
	}
	var rejected []string
	stored := 0
	_, err := decodeBulkStream(r.Body, w.capacity, func(key string, payload []byte) {
		if putErr := w.Put(key, payload); putErr != nil {
			rejected = append(rejected, key)
			return
		}
		stored++
	})
	w.mu.Lock()
	w.bulkStored += int64(stored)
	w.mu.Unlock()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(rw, BulkResponse{Stored: stored, Rejected: rejected})
}

// handleDrain is POST /v1/drain on a cache worker (body: DrainRequest).
func (w *CacheWorker) handleDrain(rw http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	if req.Self < 0 || req.Self >= len(req.Peers) {
		http.Error(rw, "self index out of range", http.StatusBadRequest)
		return
	}
	writeJSON(rw, w.drainTo(r, req))
}

// handleResume is POST /v1/resume: the worker accepts stores again.
func (w *CacheWorker) handleResume(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST required", http.StatusMethodNotAllowed)
		return
	}
	w.SetDraining(false)
	rw.WriteHeader(http.StatusNoContent)
}

// SetWorkerDraining flips a worker's drain flag in the frontend's routing:
// a draining worker keeps serving reads but stores walk past it.
func (f *Frontend) SetWorkerDraining(worker int, draining bool) {
	if worker < 0 || worker >= len(f.cfg.CacheWorkers) {
		return
	}
	f.mu.Lock()
	f.draining[worker] = draining
	f.mu.Unlock()
}

// DrainWorker gracefully drains one cache worker: stores route away from it
// immediately, then the worker streams its entries to the peers the
// frontend's own routing would pick, registers the moves in meta, and
// deregisters itself. On success the worker stays in the draining state
// (safe to restart; UndrainWorker returns it to service).
func (f *Frontend) DrainWorker(ctx context.Context, worker int) (*DrainResponse, error) {
	n := len(f.cfg.CacheWorkers)
	if worker < 0 || worker >= n {
		return nil, fmt.Errorf("distserve: no such worker %d", worker)
	}
	f.mu.Lock()
	if f.draining[worker] {
		f.mu.Unlock()
		return nil, fmt.Errorf("distserve: worker %d is already draining", worker)
	}
	f.draining[worker] = true
	peers := make([]DrainPeer, n)
	for i, u := range f.cfg.CacheWorkers {
		peers[i] = DrainPeer{URL: u, Alive: f.alive[i] && !f.draining[i]}
	}
	f.mu.Unlock()
	req := DrainRequest{Self: worker, Peers: peers, MetaURL: f.cfg.MetaURL, Replication: f.replication()}
	body, err := json.Marshal(req)
	if err != nil {
		f.SetWorkerDraining(worker, false)
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		f.cfg.CacheWorkers[worker]+"/v1/drain", bytes.NewReader(body))
	if err != nil {
		f.SetWorkerDraining(worker, false)
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Not the transfer engine's client: a drain moves a whole worker's
	// contents and must outlive the per-attempt transfer timeout. The
	// caller's context is the only bound; the connection is the frontend's.
	resp, err := (&http.Client{Transport: f.cfg.Client.Transport}).Do(hreq)
	if err != nil {
		// The worker never started draining; return it to service.
		f.SetWorkerDraining(worker, false)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The worker may be part-drained; keep routing stores away and let
		// the operator retry or undrain explicitly.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("distserve: drain of worker %d returned status %d: %s",
			worker, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var out DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	routing.DrainBody(resp.Body)
	// The worker's content moved elsewhere; its delta prefixes went with it.
	f.forgetWorkerPrefixes(worker)
	f.drainsCtr.Inc()
	return &out, nil
}

// UndrainWorker returns a drained (or part-drained) worker to service: the
// worker resumes accepting stores and the frontend routes to it again.
func (f *Frontend) UndrainWorker(ctx context.Context, worker int) error {
	if worker < 0 || worker >= len(f.cfg.CacheWorkers) {
		return fmt.Errorf("distserve: no such worker %d", worker)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		f.cfg.CacheWorkers[worker]+"/v1/resume", nil)
	if err != nil {
		return err
	}
	resp, err := f.cfg.Client.Do(hreq)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("distserve: resume of worker %d returned status %d", worker, resp.StatusCode)
	}
	f.SetWorkerDraining(worker, false)
	return nil
}

// forgetWorkerPrefixes drops one worker's delta-prefix records; the next
// store of each affected key ships a full PUT.
func (f *Frontend) forgetWorkerPrefixes(worker int) {
	f.storedMu.Lock()
	for k, p := range f.stored {
		if p.worker == worker {
			delete(f.stored, k)
		}
	}
	f.storedMu.Unlock()
}

// drainAdminRequest is the frontend operator endpoints' body.
type drainAdminRequest struct {
	Worker int `json:"worker"`
}

// handleDrain is POST /v1/drain {"worker":N} on the frontend.
func (f *Frontend) handleDrain(rw http.ResponseWriter, r *http.Request) {
	var req drainAdminRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	if req.Worker < 0 || req.Worker >= len(f.cfg.CacheWorkers) {
		http.Error(rw, "no such worker", http.StatusBadRequest)
		return
	}
	resp, err := f.DrainWorker(r.Context(), req.Worker)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	writeJSON(rw, resp)
}

// handleUndrain is POST /v1/undrain {"worker":N} on the frontend.
func (f *Frontend) handleUndrain(rw http.ResponseWriter, r *http.Request) {
	var req drainAdminRequest
	if !decodeJSON(rw, r, &req) {
		return
	}
	if req.Worker < 0 || req.Worker >= len(f.cfg.CacheWorkers) {
		http.Error(rw, "no such worker", http.StatusBadRequest)
		return
	}
	if err := f.UndrainWorker(r.Context(), req.Worker); err != nil {
		http.Error(rw, err.Error(), http.StatusBadGateway)
		return
	}
	rw.WriteHeader(http.StatusNoContent)
}
