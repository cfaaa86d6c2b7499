package model

import (
	"bytes"
	"math/rand"
	"testing"
)

// codecBenchConfig is sized so one payload is a few MB — large enough that
// MB/s reflects steady-state copy bandwidth, small enough for -benchtime=1x
// CI smoke runs.
func codecBenchConfig() Config {
	return Config{
		Name: "codec-bench", Layers: 4, Heads: 8, KVHeads: 4, HeadDim: 32,
		Hidden: 64, FFNDim: 64, Vocab: 64,
	}
}

// fillRandomKV loads tokens of synthetic K/V rows without running a forward
// pass (the codec doesn't care where the floats came from).
func fillRandomKV(c *KVCache, tokens int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := c.stride()
	k := make([]float32, st)
	v := make([]float32, st)
	for t := 0; t < tokens; t++ {
		for l := 0; l < c.cfg.Layers; l++ {
			for i := range k {
				k[i] = rng.Float32()*2 - 1
				v[i] = rng.Float32()*2 - 1
			}
			c.appendToken(l, k, v)
		}
	}
}

// 256 tokens ≈ a 1MB payload: large enough to measure steady-state decode,
// small enough to stay cache-resident like the per-layer frames the
// streaming fetch path actually decodes (so the benchmarks compare codecs,
// not DRAM bandwidth).
const codecBenchTokens = 256

func codecBenchCache() *KVCache {
	c := NewKVCache(codecBenchConfig())
	fillRandomKV(c, codecBenchTokens, 11)
	return c
}

func BenchmarkMarshalKV(b *testing.B) {
	c := codecBenchCache()
	b.SetBytes(int64(c.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalKVScalar(b *testing.B) {
	prev := ForceScalarCodec(true)
	defer ForceScalarCodec(prev)
	c := codecBenchCache()
	b.SetBytes(int64(c.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.MarshalBinary(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalKV(b *testing.B) {
	c := codecBenchCache()
	data, err := c.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	out := NewKVCache(c.Config())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalKVScalar(b *testing.B) {
	prev := ForceScalarCodec(true)
	defer ForceScalarCodec(prev)
	c := codecBenchCache()
	data, err := c.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	out := NewKVCache(c.Config())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := out.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamDecodeKV(b *testing.B) {
	c := codecBenchCache()
	data, err := c.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}
	out := NewKVCache(c.Config())
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := out.ReadFrom(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamEncodeKV(b *testing.B) {
	c := codecBenchCache()
	var buf bytes.Buffer
	buf.Grow(c.EncodedSize())
	b.SetBytes(int64(c.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := c.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
