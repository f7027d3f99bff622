package traffic

import (
	"math"
	"time"

	"cecsan/internal/splitmix"
)

// arrivalSampler draws inter-arrival times for one client class. All three
// processes are normalized to the same mean inter-arrival 1/rate, so
// rate_fraction splits traffic volume and the process only shapes its
// burstiness.
type arrivalSampler struct {
	r       *splitmix.Rand
	process string
	rate    float64 // arrivals per virtual second

	// gamma parameters (shape k, scale theta), precomputed.
	gammaK     float64
	gammaTheta float64
	// weibull parameters, precomputed so the mean lands on 1/rate.
	weibullK     float64
	weibullScale float64
}

// newArrivalSampler builds the sampler for one client's arrival spec at the
// client's absolute rate.
func newArrivalSampler(spec ArrivalSpec, rate float64, seed uint64) *arrivalSampler {
	a := &arrivalSampler{r: splitmix.New(seed), process: spec.Process, rate: rate}
	switch spec.Process {
	case ProcessGamma:
		// CV of a gamma is 1/sqrt(k): pick k from the requested CV, then
		// scale for mean k*theta = 1/rate.
		a.gammaK = 1 / (spec.CV * spec.CV)
		a.gammaTheta = 1 / (rate * a.gammaK)
	case ProcessWeibull:
		// Mean of a weibull is scale*Gamma(1+1/k).
		a.weibullK = spec.Shape
		a.weibullScale = 1 / (rate * math.Gamma(1+1/spec.Shape))
	}
	return a
}

// next draws one inter-arrival interval.
func (a *arrivalSampler) next() time.Duration {
	var sec float64
	switch a.process {
	case ProcessGamma:
		sec = a.gammaTheta * gammaDraw(a.r, a.gammaK)
	case ProcessWeibull:
		sec = a.weibullScale * math.Pow(expDraw(a.r), 1/a.weibullK)
	default: // poisson: exponential inter-arrivals
		sec = expDraw(a.r) / a.rate
	}
	return time.Duration(sec * float64(time.Second))
}

// expDraw is a unit-mean exponential draw. 1-u is in (0, 1], so the log is
// finite.
func expDraw(r *splitmix.Rand) float64 { return -math.Log(1 - r.Float()) }

// normDraw is a standard normal draw via Box–Muller. It burns two uniforms
// per value (no cached spare), keeping the stream's state a single uint64.
func normDraw(r *splitmix.Rand) float64 {
	u := 1 - r.Float() // (0, 1]
	v := r.Float()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// gammaDraw samples a unit-scale gamma with shape k via Marsaglia–Tsang
// (2000); the k < 1 boost uses the standard Gamma(k+1)·U^(1/k) identity.
// Rejection loops are fine for determinism: the draw consumes a definite
// prefix of the seeded stream.
func gammaDraw(r *splitmix.Rand, k float64) float64 {
	if k < 1 {
		return gammaDraw(r, k+1) * math.Pow(1-r.Float(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normDraw(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - r.Float() // (0, 1]
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}
