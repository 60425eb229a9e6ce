package tensor

import "taser/internal/mathx"

// cpuTile returns the widest tile the CPU runs, as the tree's one CPUID
// routine reports it: tileAVX512 where the CPU has AVX-512F and AVX2 and the
// OS saves the ZMM and opmask state, else tileAVX2 where it has AVX2 and the
// OS saves the YMM state, else tileGo.
func cpuTile() tileKind {
	avx2, _, avx512f := mathx.CPUFeatures()
	switch {
	case avx2 && avx512f:
		return avx512Tile
	case avx2:
		return avx2Tile
	}
	return goTile
}

// tileAVX2 is the panel of 4×8 tiles of tile.go in AVX2 assembly
// (tile_amd64.s); a nil bias adds nothing. It performs no bounds checks:
// call it only through tile, which has verified the extent of every operand
// and that blocks ≥ 1. Strides are in elements.
//
//go:noescape
func tileAVX2(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int)

// tileAVX512 is tileAVX2 on 512-bit registers (tile_amd64.s), two blocks per
// k loop, under the same contract and the same calling rules.
//
//go:noescape
func tileAVX512(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int)
