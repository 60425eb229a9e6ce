//go:build !amd64

package mathx

// ForceScalarGELU has nothing to switch here (see gelu_amd64.go).
func ForceScalarGELU(on bool) (kernel bool) { return false }

// Without a kernel GELUInto is a loop over GELUTanh.
func geluLanes(y, t, x []float64) int { return 0 }
