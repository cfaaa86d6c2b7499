package model

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// KV cache wire format, the payload the disaggregated cache pool's transfer
// engine moves between workers (§5.1). BKV2 frames each layer so a receiver
// can decode as bytes arrive instead of buffering the whole payload. Layout
// (all integers little endian):
//
//	header (20 bytes):
//	  magic  uint32  'BKV2'
//	  layers uint32
//	  kvh    uint32
//	  hdim   uint32
//	  tokens uint32
//	per layer l = 0..layers-1 (frame header 8 bytes + payload):
//	  layer  uint32  == l
//	  size   uint32  == 2*tokens*kvh*hdim*4 (K bytes + V bytes)
//	  k      float32[tokens*kvh*hdim]
//	  v      float32[tokens*kvh*hdim]
//
// On little-endian hosts the float payload is the in-memory []float32
// representation, so encode and decode are single bulk copies per half-frame
// (or zero-copy writes in WriteTo); a portable scalar path covers big-endian
// hosts and is cross-tested against the bulk path for byte identity.
const (
	cacheMagic      = 0x424b5632 // 'BKV2'
	wireHeaderSize  = 20
	frameHeaderSize = 8
)

// Hostile-header caps, checked before any allocation. They bound what a
// decoder will even consider, independent of the receiver's architecture:
// MaxWireTokens is far above any real history (the paper's longest sequences
// are O(10^4) tokens) while keeping the worst-case allocation a declared
// header can demand well under memory-exhaustion territory.
const (
	MaxWireTokens  = 1 << 20
	maxWireLayers  = 1 << 12
	maxWireKVHeads = 1 << 10
	maxWireHeadDim = 1 << 12
)

// hostLittleEndian reports whether []float32 memory already matches the wire
// byte order, enabling the reinterpret-and-copy bulk codec.
var hostLittleEndian = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// forceScalarCodec pins the portable scalar path on (tests and the codec
// benchmark flip it to cross-check that both paths produce identical bytes
// and to measure the bulk path's speedup).
var forceScalarCodec = false

// ForceScalarCodec toggles the portable scalar codec path and returns the
// previous setting. It exists for benchmarks and cross-checks only; it is not
// safe to flip concurrently with codec use.
func ForceScalarCodec(v bool) (prev bool) {
	prev = forceScalarCodec
	forceScalarCodec = v
	return prev
}

func bulkCodec() bool { return hostLittleEndian && !forceScalarCodec }

// f32Bytes reinterprets a float32 slice as its raw bytes. Only meaningful on
// little-endian hosts (the wire order); callers gate on bulkCodec().
func f32Bytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), len(v)*4)
}

// encodeF32 appends vals' wire bytes to dst: one bulk copy on little-endian
// hosts, a scalar loop otherwise.
func encodeF32(dst []byte, vals []float32) []byte {
	if bulkCodec() {
		return append(dst, f32Bytes(vals)...)
	}
	var scratch [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
		dst = append(dst, scratch[:]...)
	}
	return dst
}

// decodeF32 fills out from wire bytes src (len(src) == 4*len(out)).
func decodeF32(out []float32, src []byte) {
	if bulkCodec() {
		copy(f32Bytes(out), src)
		return
	}
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// WireHeader is a parsed BKV2 payload header: the architecture triple the
// payload was encoded for plus its token count.
type WireHeader struct {
	Layers  int
	KVHeads int
	HeadDim int
	Tokens  int
}

func (h WireHeader) stride() int { return h.KVHeads * h.HeadDim }

// layerBytes is one layer frame's payload size (K bytes + V bytes).
func (h WireHeader) layerBytes() int { return 2 * h.Tokens * h.stride() * 4 }

// PayloadSize returns the exact encoded size of a payload with this header.
func (h WireHeader) PayloadSize() int {
	return wireHeaderSize + h.Layers*(frameHeaderSize+h.layerBytes())
}

// ParseWireHeader validates a BKV2 header prefix and returns its fields. The
// dimension caps reject hostile headers before any caller allocates; the caps
// also guarantee PayloadSize cannot overflow (4096 layers of 2^20 tokens at
// the max stride is < 2^62).
func ParseWireHeader(data []byte) (WireHeader, error) {
	if len(data) < wireHeaderSize {
		return WireHeader{}, fmt.Errorf("model: kv payload truncated (%d bytes)", len(data))
	}
	if binary.LittleEndian.Uint32(data[0:]) != cacheMagic {
		return WireHeader{}, fmt.Errorf("model: bad kv payload magic")
	}
	h := WireHeader{
		Layers:  int(binary.LittleEndian.Uint32(data[4:])),
		KVHeads: int(binary.LittleEndian.Uint32(data[8:])),
		HeadDim: int(binary.LittleEndian.Uint32(data[12:])),
		Tokens:  int(binary.LittleEndian.Uint32(data[16:])),
	}
	switch {
	case h.Layers <= 0 || h.Layers > maxWireLayers:
		return WireHeader{}, fmt.Errorf("model: kv payload layers %d out of range (max %d)", h.Layers, maxWireLayers)
	case h.KVHeads <= 0 || h.KVHeads > maxWireKVHeads:
		return WireHeader{}, fmt.Errorf("model: kv payload kv heads %d out of range (max %d)", h.KVHeads, maxWireKVHeads)
	case h.HeadDim <= 0 || h.HeadDim > maxWireHeadDim:
		return WireHeader{}, fmt.Errorf("model: kv payload head dim %d out of range (max %d)", h.HeadDim, maxWireHeadDim)
	case h.Tokens < 0 || h.Tokens > MaxWireTokens:
		return WireHeader{}, fmt.Errorf("model: kv payload tokens %d out of range (max %d)", h.Tokens, MaxWireTokens)
	}
	return h, nil
}

func putWireHeader(b []byte, cfg Config, tokens int) {
	binary.LittleEndian.PutUint32(b[0:], cacheMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(cfg.Layers))
	binary.LittleEndian.PutUint32(b[8:], uint32(cfg.KVHeads))
	binary.LittleEndian.PutUint32(b[12:], uint32(cfg.HeadDim))
	binary.LittleEndian.PutUint32(b[16:], uint32(tokens))
}

func putFrameHeader(b []byte, layer, size int) {
	binary.LittleEndian.PutUint32(b[0:], uint32(layer))
	binary.LittleEndian.PutUint32(b[4:], uint32(size))
}

func checkFrameHeader(b []byte, layer, size int) error {
	if got := int(binary.LittleEndian.Uint32(b[0:])); got != layer {
		return fmt.Errorf("model: kv frame %d carries layer index %d", layer, got)
	}
	if got := int(binary.LittleEndian.Uint32(b[4:])); got != size {
		return fmt.Errorf("model: kv frame %d is %d bytes, want %d", layer, got, size)
	}
	return nil
}

// checkArch rejects payloads encoded for a different architecture than the
// receiving cache.
func (c *KVCache) checkArch(h WireHeader) error {
	if h.Layers != c.cfg.Layers || h.KVHeads != c.cfg.KVHeads || h.HeadDim != c.cfg.HeadDim {
		return fmt.Errorf("model: kv payload for L=%d H=%d D=%d, cache expects L=%d H=%d D=%d",
			h.Layers, h.KVHeads, h.HeadDim, c.cfg.Layers, c.cfg.KVHeads, c.cfg.HeadDim)
	}
	return nil
}

func (c *KVCache) wireHeader(tokens int) WireHeader {
	return WireHeader{Layers: c.cfg.Layers, KVHeads: c.cfg.KVHeads, HeadDim: c.cfg.HeadDim, Tokens: tokens}
}

// EncodedSize returns the exact MarshalBinary payload length, so senders can
// preallocate buffers and set Content-Length without encoding twice.
func (c *KVCache) EncodedSize() int { return c.wireHeader(c.n).PayloadSize() }

// MarshalBinary serializes the cache for network transfer or spill, encoding
// straight into one exactly-sized buffer.
func (c *KVCache) MarshalBinary() ([]byte, error) {
	h := c.wireHeader(c.n)
	st := c.stride()
	buf := make([]byte, 0, h.PayloadSize())
	var hdr [wireHeaderSize]byte
	putWireHeader(hdr[:], c.cfg, c.n)
	buf = append(buf, hdr[:]...)
	var fh [frameHeaderSize]byte
	for l := 0; l < c.cfg.Layers; l++ {
		putFrameHeader(fh[:], l, h.layerBytes())
		buf = append(buf, fh[:]...)
		k, v := c.store.layerData(l, c.n)
		buf = encodeF32(buf, k[:c.n*st])
		buf = encodeF32(buf, v[:c.n*st])
	}
	return buf, nil
}

// resizeFloats returns a length-n slice, reusing b's storage when its
// capacity suffices so steady-state decodes into a warm receiver allocate
// nothing.
func resizeFloats(b []float32, n int) []float32 {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]float32, n)
}

// UnmarshalBinary restores a cache serialized by MarshalBinary. The receiver
// must have been built (NewKVCache) for a matching architecture; existing
// contents are replaced only on success — the whole payload (header, length,
// every frame header) is validated before any storage is touched, so any
// error leaves the receiver untouched. Decoding is bulk per half-frame with
// no intermediate buffers, reusing the receiver's contiguous storage in
// place when it is large enough.
func (c *KVCache) UnmarshalBinary(data []byte) error {
	h, err := ParseWireHeader(data)
	if err != nil {
		return err
	}
	if err := c.checkArch(h); err != nil {
		return err
	}
	if len(data) != h.PayloadSize() {
		return fmt.Errorf("model: kv payload is %d bytes, want %d", len(data), h.PayloadSize())
	}
	st := c.stride()
	lb := h.layerBytes()
	half := lb / 2
	for l := 0; l < c.cfg.Layers; l++ {
		off := wireHeaderSize + l*(frameHeaderSize+lb)
		if err := checkFrameHeader(data[off:off+frameHeaderSize], l, lb); err != nil {
			return err
		}
	}
	// Fully validated: decoding below cannot fail. Decoded payloads land in
	// contiguous storage; a view receiver returns its tail to its pool first.
	fs, ok := c.store.(*flatStore)
	if !ok {
		c.store.release()
		fs = newFlatStore(c.cfg)
		c.store = fs
	}
	off := wireHeaderSize + frameHeaderSize
	for l := 0; l < c.cfg.Layers; l++ {
		fs.k[l] = resizeFloats(fs.k[l], h.Tokens*st)
		fs.v[l] = resizeFloats(fs.v[l], h.Tokens*st)
		decodeF32(fs.k[l], data[off:off+half])
		decodeF32(fs.v[l], data[off+half:off+lb])
		off += lb + frameHeaderSize
	}
	c.n = h.Tokens
	return nil
}

// WriteTo streams the cache's BKV2 encoding to w without materializing a
// second full copy: on little-endian hosts each half-frame write is the
// layer's storage viewed as bytes.
func (c *KVCache) WriteTo(w io.Writer) (int64, error) {
	var written int64
	var hdr [wireHeaderSize]byte
	putWireHeader(hdr[:], c.cfg, c.n)
	n, err := w.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	h := c.wireHeader(c.n)
	st := c.stride()
	var fh [frameHeaderSize]byte
	var scratch []byte // scalar fallback only
	for l := 0; l < c.cfg.Layers; l++ {
		putFrameHeader(fh[:], l, h.layerBytes())
		n, err = w.Write(fh[:])
		written += int64(n)
		if err != nil {
			return written, err
		}
		k, v := c.store.layerData(l, c.n)
		for _, vals := range [2][]float32{k[:c.n*st], v[:c.n*st]} {
			var b []byte
			if bulkCodec() {
				b = f32Bytes(vals)
			} else {
				scratch = encodeF32(scratch[:0], vals)
				b = scratch
			}
			n, err = w.Write(b)
			written += int64(n)
			if err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// ReadFrom decodes a BKV2 stream produced by WriteTo/MarshalBinary, reading
// each layer frame directly into its destination storage as bytes arrive —
// decode cost overlaps receive, and no full-payload buffer ever exists. The
// header is validated (architecture + token cap) before any allocation, and
// the decoded store is installed only after the whole stream arrives: a
// truncated or corrupt stream errors out with the receiver untouched, so a
// partial body can never masquerade as a cache hit.
func (c *KVCache) ReadFrom(r io.Reader) (int64, error) {
	var read int64
	var hdr [wireHeaderSize]byte
	n, err := io.ReadFull(r, hdr[:])
	read += int64(n)
	if err != nil {
		return read, fmt.Errorf("model: kv stream header: %w", err)
	}
	h, err := ParseWireHeader(hdr[:])
	if err != nil {
		return read, err
	}
	if err := c.checkArch(h); err != nil {
		return read, err
	}
	st := c.stride()
	lb := h.layerBytes()
	fs := newFlatStore(c.cfg)
	var fh [frameHeaderSize]byte
	var scratch []byte // scalar fallback only
	for l := 0; l < c.cfg.Layers; l++ {
		n, err = io.ReadFull(r, fh[:])
		read += int64(n)
		if err != nil {
			return read, fmt.Errorf("model: kv stream frame %d header: %w", l, err)
		}
		if err := checkFrameHeader(fh[:], l, lb); err != nil {
			return read, err
		}
		k := make([]float32, h.Tokens*st)
		v := make([]float32, h.Tokens*st)
		for _, vals := range [2][]float32{k, v} {
			if bulkCodec() {
				n, err = io.ReadFull(r, f32Bytes(vals))
				read += int64(n)
			} else {
				if cap(scratch) < len(vals)*4 {
					scratch = make([]byte, len(vals)*4)
				}
				scratch = scratch[:len(vals)*4]
				n, err = io.ReadFull(r, scratch)
				read += int64(n)
				if err == nil {
					decodeF32(vals, scratch)
				}
			}
			if err != nil {
				return read, fmt.Errorf("model: kv stream frame %d payload: %w", l, err)
			}
		}
		fs.k[l], fs.v[l] = k, v
	}
	c.store.release()
	c.store = fs
	c.n = h.Tokens
	return read, nil
}

// ChecksumEncoded returns the FNV-1a/64 checksum of an encoded payload,
// inlined so it costs no hasher allocation. A cache worker reports it for its
// stored bytes on HEAD probes, and the scrubber compares it across replicas.
func ChecksumEncoded(data []byte) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, x := range data {
		h ^= uint64(x)
		h *= prime64
	}
	return h
}
