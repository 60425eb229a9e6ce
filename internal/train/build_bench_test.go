package train

import (
	"testing"

	"taser/internal/adaptive"
)

// benchmarkBuild measures the minibatch build path in isolation — edge
// choice, root assembly, build, buffer release — the part of a training
// step before PP, which the buffer pool makes (near-)allocation-free. allocs/op is the regression guard: the seed's
// unpooled path allocated ~350 objects per step on this configuration.
func benchmarkBuild(b *testing.B, mut func(*Config)) {
	ds := tinyDS(40)
	cfg := tinyCfg()
	mut(&cfg)
	tr, err := New(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges := tr.nextBatchEdges()
		built := tr.buildBatch(tr.rootsForEdges(edges), edges)
		tr.releaseBatch(&built)
	}
}

func BenchmarkBuildMiniBatch(b *testing.B) {
	benchmarkBuild(b, func(c *Config) {})
}

func BenchmarkBuildMiniBatchAdaptive(b *testing.B) {
	benchmarkBuild(b, func(c *Config) {
		c.AdaNeighbor = true
		c.Decoder = adaptive.DecoderGATv2
	})
}
