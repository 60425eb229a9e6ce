//go:build !amd64

package tensor

// Without an assembly tile every product runs tileGo.
const haveTileAsm = false

// forceGoTile has nothing to switch here (see tile_amd64.go).
func forceGoTile(on bool) (asm bool) { return false }

func tileAVX2(dst *float64, ldd int, a *float64, lane, kstep int, b *float64, ldb, k, blocks int, bias *float64, mode int) {
	panic("tensor: tileAVX2 on a platform without it")
}
