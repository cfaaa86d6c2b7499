package model

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"testing"

	"bat/internal/tensor"
)

// wireTestConfigs are the attention families the BKV2 codec must round-trip
// bit-exactly: grouped-query (TinyGR), full multi-head, and HSTU.
func wireTestConfigs() map[string]Config {
	gqa := TinyGR(32)
	mha := TinyGR(32)
	mha.Name = "tiny-mha"
	mha.KVHeads = mha.Heads
	hstu := TinyGR(32)
	hstu.Name = "tiny-hstu"
	hstu.Attn = AttnHSTU
	return map[string]Config{"gqa": gqa, "mha": mha, "hstu": hstu}
}

// wireCache builds a cache holding tokens real forward-pass K/V rows.
func wireCache(tb testing.TB, cfg Config, tokens int) *KVCache {
	tb.Helper()
	c := NewKVCache(cfg)
	if tokens > 0 {
		w := NewWeights(cfg, 7)
		rng := rand.New(rand.NewSource(int64(tokens)))
		w.Forward(randTokens(rng, tokens, cfg.Vocab), seqPos(tokens), nil, c)
	}
	return c
}

func TestKVCacheMarshalRoundTrip(t *testing.T) {
	w := tinyWeights(t, 128)
	rng := rand.New(rand.NewSource(1))
	toks := randTokens(rng, 10, 128)
	cache := NewKVCache(w.Config())
	w.Forward(toks, seqPos(10), nil, cache)

	data, err := cache.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != cache.EncodedSize() {
		t.Fatalf("payload %d bytes, EncodedSize says %d", len(data), cache.EncodedSize())
	}
	restored := NewKVCache(w.Config())
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 10 {
		t.Fatalf("restored %d tokens", restored.Len())
	}
	// A suffix served from the restored cache must match the original.
	suffix := []int{5, 6}
	pos := []int{10, 11}
	h1 := w.Forward(suffix, pos, nil, cache.Clone())
	h2 := w.Forward(suffix, pos, nil, restored)
	if d := tensor.MaxAbsDiff(h1.Data, h2.Data); d != 0 {
		t.Fatalf("restored cache deviates by %v", d)
	}
}

// TestCodecRoundTripBitExact pins the acceptance criterion: encode→decode is
// bit-identical across attention families and token counts, for both the
// bulk and the scalar codec, through both the buffer and the stream APIs.
func TestCodecRoundTripBitExact(t *testing.T) {
	for name, cfg := range wireTestConfigs() {
		for _, tokens := range []int{0, 1, 5, 17} {
			c := wireCache(t, cfg, tokens)
			want, err := c.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			for _, scalar := range []bool{false, true} {
				prev := ForceScalarCodec(scalar)
				restored := NewKVCache(cfg)
				if err := restored.UnmarshalBinary(want); err != nil {
					t.Fatalf("%s/%d scalar=%v: %v", name, tokens, scalar, err)
				}
				got, err := restored.MarshalBinary()
				ForceScalarCodec(prev)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%d scalar=%v: round trip not byte-identical", name, tokens, scalar)
				}
				streamed := NewKVCache(cfg)
				if _, err := streamed.ReadFrom(bytes.NewReader(want)); err != nil {
					t.Fatalf("%s/%d stream decode: %v", name, tokens, err)
				}
				got, err = streamed.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s/%d: stream round trip not byte-identical", name, tokens)
				}
			}
		}
	}
}

// TestCodecBulkScalarIdenticalBytes cross-tests the two encoder paths: the
// scalar fallback and the bulk reinterpretation must emit identical bytes
// through MarshalBinary and WriteTo, so both wire images checksum alike.
func TestCodecBulkScalarIdenticalBytes(t *testing.T) {
	for name, cfg := range wireTestConfigs() {
		c := wireCache(t, cfg, 11)
		prev := ForceScalarCodec(false)
		bulk, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var bulkStream bytes.Buffer
		if _, err := c.WriteTo(&bulkStream); err != nil {
			t.Fatal(err)
		}
		ForceScalarCodec(true)
		scalar, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var scalarStream bytes.Buffer
		if _, err := c.WriteTo(&scalarStream); err != nil {
			t.Fatal(err)
		}
		ForceScalarCodec(prev)
		if !bytes.Equal(bulk, scalar) {
			t.Fatalf("%s: bulk and scalar MarshalBinary differ", name)
		}
		if !bytes.Equal(bulkStream.Bytes(), bulk) || !bytes.Equal(scalarStream.Bytes(), bulk) {
			t.Fatalf("%s: WriteTo bytes differ from MarshalBinary", name)
		}
		ref := fnv.New64a()
		ref.Write(bulk)
		if bulkSum, scalarSum := ChecksumEncoded(bulk), ChecksumEncoded(scalar); bulkSum != scalarSum || bulkSum != ref.Sum64() {
			t.Fatalf("%s: checksum mismatch bulk=%x scalar=%x fnv64a=%x", name, bulkSum, scalarSum, ref.Sum64())
		}
	}
}

// TestKVCacheStreamTruncation: any prefix of a valid stream must error out
// and leave the receiver's previous contents untouched — a truncated body can
// never produce a partial cache hit.
func TestKVCacheStreamTruncation(t *testing.T) {
	cfg := TinyGR(32)
	c := wireCache(t, cfg, 9)
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pre := wireCache(t, cfg, 2)
	preBytes, err := pre.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		r := NewKVCache(cfg)
		if err := r.UnmarshalBinary(preBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadFrom(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(data))
		}
		if r.Len() != 2 {
			t.Fatalf("truncation at %d left %d tokens (partial install)", cut, r.Len())
		}
		got, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, preBytes) {
			t.Fatalf("truncation at %d mutated receiver contents", cut)
		}
	}
	// Trailing garbage after a full payload is also rejected by the buffer
	// API (exact-size check); the stream API stops at the payload boundary.
	if err := NewKVCache(cfg).UnmarshalBinary(append(append([]byte{}, data...), 0xff)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func TestKVCacheMarshalEmpty(t *testing.T) {
	c := NewKVCache(TinyGR(16))
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	out := NewKVCache(TinyGR(16))
	if err := out.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("empty cache restored %d tokens", out.Len())
	}
}

func TestKVCacheUnmarshalRejectsGarbage(t *testing.T) {
	c := NewKVCache(TinyGR(16))
	cases := [][]byte{
		nil,
		[]byte("short"),
		make([]byte, 20), // zero magic
	}
	for i, data := range cases {
		if err := c.UnmarshalBinary(data); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// TestWireHeaderHostileRejection: declared dimensions are capped before any
// allocation, so a 20-byte header cannot demand gigabytes.
func TestWireHeaderHostileRejection(t *testing.T) {
	mk := func(layers, kvh, hdim, tokens uint32) []byte {
		b := make([]byte, wireHeaderSize)
		putWireHeader(b, Config{Layers: int(layers), KVHeads: int(kvh), HeadDim: int(hdim)}, int(tokens))
		return b
	}
	hostile := [][]byte{
		mk(2, 2, 8, MaxWireTokens+1),
		mk(2, 2, 8, 0xffffffff),
		mk(maxWireLayers+1, 2, 8, 3),
		mk(0xffffffff, 0xffffffff, 0xffffffff, 0xffffffff),
		mk(0, 2, 8, 3),
		mk(2, 0, 8, 3),
		mk(2, 2, 0, 3),
		mk(2, maxWireKVHeads+1, 8, 3),
		mk(2, 2, maxWireHeadDim+1, 3),
	}
	for i, hdr := range hostile {
		if _, err := ParseWireHeader(hdr); err == nil {
			t.Errorf("hostile header %d accepted by ParseWireHeader", i)
		}
		c := NewKVCache(TinyGR(16))
		if err := c.UnmarshalBinary(hdr); err == nil {
			t.Errorf("hostile header %d accepted by UnmarshalBinary", i)
		}
		if _, err := c.ReadFrom(bytes.NewReader(hdr)); err == nil {
			t.Errorf("hostile header %d accepted by ReadFrom", i)
		}
	}
	// Within caps but mismatching the receiver: rejected by checkArch before
	// any frame allocation.
	if _, err := ParseWireHeader(mk(64, 8, 64, 1024)); err != nil {
		t.Fatalf("in-cap header rejected: %v", err)
	}
	if err := NewKVCache(TinyGR(16)).UnmarshalBinary(mk(64, 8, 64, 1024)); err == nil {
		t.Fatal("arch-mismatched header accepted")
	}
}

func TestKVCacheUnmarshalRejectsArchMismatch(t *testing.T) {
	a := NewKVCache(TinyGR(16))
	w := NewWeights(TinyGR(16), 1)
	w.Forward([]int{1, 2}, seqPos(2), nil, a)
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	other := Config{Name: "other", Layers: 1, Heads: 2, KVHeads: 2, HeadDim: 4, Hidden: 8, FFNDim: 8, Vocab: 16}
	b := NewKVCache(other)
	if err := b.UnmarshalBinary(data); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
	// Truncated body.
	if err := NewKVCache(TinyGR(16)).UnmarshalBinary(data[:len(data)-4]); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Old BKV1 payloads are rejected, not silently misdecoded.
	old := append([]byte{}, data...)
	old[0] = 0x31 // little-endian magic starts with the version char: '2' -> '1'
	if err := NewKVCache(TinyGR(16)).UnmarshalBinary(old); err == nil {
		t.Fatal("BKV1 magic accepted")
	}
}
