package mathx

import "math"

// Sigmoid returns 1/(1+e^-x) computed in a numerically stable way.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// The tanh approximation of the Gaussian error linear unit (as used by
// MLP-Mixer and most transformer stacks): GELU(x) = x/2 · (1 + tanh(u)),
// u = geluC·(x + geluA·x³).
const (
	geluC = 0.7978845608028654 // sqrt(2/pi)
	geluA = 0.044715
)

// GELUTanh returns GELU(x) together with the tanh(u) it evaluated — all that
// GELUGradTanh needs to differentiate at x without a second transcendental.
func GELUTanh(x float64) (y, t float64) {
	t = math.Tanh(geluC * (x + geluA*x*x*x))
	return 0.5 * x * (1 + t), t
}

// GELUInto writes GELUTanh(x[i]) into y[i] and, unless t is nil, t[i]; the
// slices have equal length and y may be x. GELUTanh is the definition: where
// the CPU allows, whole groups of four go through a kernel that returns the
// same bits (gelu_amd64.go), and the rest — or everything — through it.
func GELUInto(y, t, x []float64) {
	y = y[:len(x)]
	if t != nil {
		t = t[:len(x)]
	}
	for i := geluLanes(y, t, x); i < len(x); i++ {
		var th float64
		y[i], th = GELUTanh(x[i])
		if t != nil {
			t[i] = th
		}
	}
}

// GELUGradTanh is d GELU(x)/dx given t, the tanh GELUTanh(x) returned.
func GELUGradTanh(x, t float64) float64 {
	sech2 := 1 - t*t
	return 0.5*(1+t) + 0.5*x*sech2*geluC*(1+3*geluA*x*x)
}

// LeakyReLU with the conventional 0.2 negative slope used by GAT.
func LeakyReLU(x, slope float64) float64 {
	if x >= 0 {
		return x
	}
	return slope * x
}

// LogSumExp returns log(sum(exp(xs))) stably.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, x := range xs {
		s += math.Exp(x - m)
	}
	return m + math.Log(s)
}

// MinInt and MaxInt avoid importing cmp for two call sites.
func MinInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func MaxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
