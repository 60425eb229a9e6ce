//go:build !amd64

package mathx

// Without a kernel CosInto and SincosInto are cosGo and sincosGo.
func trigLanes(cos, sin, x []float64) int { return 0 }
