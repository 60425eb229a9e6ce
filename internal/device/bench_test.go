package device

import "testing"

var launchSink int

// BenchmarkLaunch measures kernel-dispatch overhead: an almost empty kernel
// over a training-scale grid (one block per target at batch-600 root
// counts), so the cost is the launch's loop and the kernel's call.
func BenchmarkLaunch(b *testing.B) {
	g := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.LaunchBlocks(600, func(block int) { launchSink += block })
	}
}
