//go:build !amd64

package mathx

// ForceScalar has nothing to switch here (see gelu_amd64.go).
func ForceScalar(on bool) (gelu, trig bool) { return false, false }

// Without a kernel GELUInto is a loop over GELUTanh.
func geluLanes(y, t, x []float64) int { return 0 }
