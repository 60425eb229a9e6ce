package tensor

import "taser/internal/mathx"

// haveTileAsm reports whether tile may run tileAVX2: the CPU has AVX2 and
// the OS saves the YMM state. Probed once at package init; there is no flag,
// environment variable or build tag that overrides it.
var haveTileAsm = cpuHasAVX2()

// cpuHasAVX2 asks the tree's one CPUID routine.
func cpuHasAVX2() bool {
	avx2, _ := mathx.CPUFeatures()
	return avx2
}

// forceGoTile routes every product through the Go twin (on) or back to what
// the CPU probe chose (off), and reports whether the assembly tile is then
// active. It exists so BenchmarkMatMul and the equivalence tests can time and
// compare one implementation against the other; nothing outside this
// package's tests calls it, and it must not be called while kernels run.
func forceGoTile(on bool) (asm bool) {
	haveTileAsm = !on && cpuHasAVX2()
	return haveTileAsm
}

// tileAVX2 is the panel of 4×8 tiles of tile.go in AVX2 assembly
// (tile_amd64.s); a nil bias adds nothing. It performs no bounds checks:
// call it only through tile, which has verified the extent of every operand
// and that blocks ≥ 1. Strides are in elements.
//
//go:noescape
func tileAVX2(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int)
