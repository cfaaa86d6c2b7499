package model

import (
	"bytes"
	"testing"
)

// FuzzKVCacheUnmarshal: arbitrary payloads must never panic the decoder,
// and accepted payloads must leave the cache self-consistent.
func FuzzKVCacheUnmarshal(f *testing.F) {
	w := NewWeights(TinyGR(32), 1)
	cache := NewKVCache(w.Config())
	w.Forward([]int{1, 2, 3}, []int{0, 1, 2}, nil, cache)
	valid, err := cache.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a cache"))
	f.Add(valid[:12])
	f.Add(valid[:wireHeaderSize])
	f.Add(valid[:wireHeaderSize+frameHeaderSize+3])
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewKVCache(TinyGR(32))
		if err := c.UnmarshalBinary(data); err != nil {
			return
		}
		if c.Len() < 0 {
			t.Fatal("negative token count accepted")
		}
		// An accepted cache must re-serialize to the same bytes.
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(data) {
			t.Fatalf("round trip changed size: %d -> %d", len(data), len(out))
		}
		for i := range out {
			if out[i] != data[i] {
				t.Fatal("round trip changed bytes")
			}
		}
	})
}

// FuzzKVCacheReadFrom fuzzes the BKV2 streaming decoder: never panic, never
// install a partial cache, and an accepted stream must re-serialize to
// exactly the bytes consumed.
func FuzzKVCacheReadFrom(f *testing.F) {
	w := NewWeights(TinyGR(32), 1)
	cache := NewKVCache(w.Config())
	w.Forward([]int{1, 2, 3}, []int{0, 1, 2}, nil, cache)
	valid, err := cache.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), 0xde, 0xad)) // trailing junk after a full stream
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:wireHeaderSize+frameHeaderSize])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewKVCache(TinyGR(32))
		n, err := c.ReadFrom(bytes.NewReader(data))
		if err != nil {
			if c.Len() != 0 {
				t.Fatalf("failed stream installed %d tokens", c.Len())
			}
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("read %d of %d bytes", n, len(data))
		}
		out, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, data[:n]) {
			t.Fatal("stream round trip changed bytes")
		}
	})
}
