package bat

// The benchmark harness: one benchmark per table and figure in the paper's
// evaluation. Each iteration regenerates the artifact end to end (workload
// synthesis, placement, scheduling, simulation or model execution), so
// benchmark time measures the full reproduction pipeline and -v output can
// be diffed against EXPERIMENTS.md.
//
//	go test -bench=. -benchmem                 # every artifact
//	go test -bench=BenchmarkFig5QPS -v         # one artifact, with its table

import (
	"testing"

	"bat/internal/experiments"
)

// benchOpts trades a little statistical resolution for tractable benchmark
// time; cmd/batbench without -quick runs the full-size configurations.
func benchOpts() experiments.Options {
	return experiments.Options{Requests: 2000, Seed: 11}
}

func runArtifact(b *testing.B, id string, opts experiments.Options) {
	b.Helper()
	runner, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("artifact %s not registered", id)
	}
	for i := 0; i < b.N; i++ {
		table, err := runner(opts)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if i == 0 && testing.Verbose() {
			b.Log("\n" + table.Format())
		}
	}
}

func BenchmarkFig2aLatency(b *testing.B)    { runArtifact(b, "fig2a", benchOpts()) }
func BenchmarkFig2bUserTokens(b *testing.B) { runArtifact(b, "fig2b", benchOpts()) }
func BenchmarkFig2cUserFreq(b *testing.B)   { runArtifact(b, "fig2c", benchOpts()) }
func BenchmarkFig2dItemFreq(b *testing.B)   { runArtifact(b, "fig2d", benchOpts()) }
func BenchmarkTable1Datasets(b *testing.B)  { runArtifact(b, "table1", benchOpts()) }
func BenchmarkTable2Models(b *testing.B)    { runArtifact(b, "table2", benchOpts()) }
func BenchmarkFig4Consistency(b *testing.B) { runArtifact(b, "fig4", benchOpts()) }

func BenchmarkFig5QPS(b *testing.B) { runArtifact(b, "fig5", benchOpts()) }

func BenchmarkFig6HitRate(b *testing.B) { runArtifact(b, "fig6", benchOpts()) }

func BenchmarkTable3Accuracy(b *testing.B) {
	opts := benchOpts()
	opts.Quick = true // full Table 3 runs ~18 model evaluations; see batbench
	opts.Requests = 0
	runArtifact(b, "table3", opts)
}

func BenchmarkFig7Placement(b *testing.B)     { runArtifact(b, "fig7", benchOpts()) }
func BenchmarkFig8Scheduling(b *testing.B)    { runArtifact(b, "fig8", benchOpts()) }
func BenchmarkTable4Ablation(b *testing.B)    { runArtifact(b, "table4", benchOpts()) }
func BenchmarkFig9Latency(b *testing.B)       { runArtifact(b, "fig9", benchOpts()) }
func BenchmarkFig10DatasetScale(b *testing.B) { runArtifact(b, "fig10", benchOpts()) }
func BenchmarkFig11NodeScale(b *testing.B)    { runArtifact(b, "fig11", benchOpts()) }

// Extensions: passing paper claims and design-knob ablations.
func BenchmarkExtCandidateSweep(b *testing.B)   { runArtifact(b, "ext-candidates", benchOpts()) }
func BenchmarkExtAlphaSweep(b *testing.B)       { runArtifact(b, "ext-alpha", benchOpts()) }
func BenchmarkExtBurstRefresh(b *testing.B)     { runArtifact(b, "ext-burst", benchOpts()) }
func BenchmarkExtSlowTier(b *testing.B)         { runArtifact(b, "ext-tier", benchOpts()) }
func BenchmarkExtGPUResident(b *testing.B)      { runArtifact(b, "ext-gpu", benchOpts()) }
func BenchmarkExtSchedulerLattice(b *testing.B) { runArtifact(b, "ext-oracle", benchOpts()) }
