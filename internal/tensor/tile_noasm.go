//go:build !amd64

package tensor

// Without an assembly tile every product runs tileGo.
func cpuTile() tileKind { return goTile }

func tileAVX2(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int) {
	panic("tensor: tileAVX2 on a platform without it")
}

func tileAVX512(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int) {
	panic("tensor: tileAVX512 on a platform without it")
}
