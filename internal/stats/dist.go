package stats

import "math"

// NormalCDF returns P(X <= x) for X ~ N(mu, sigma^2).
func NormalCDF(x, mu, sigma float64) float64 {
	if sigma <= 0 {
		if x < mu {
			return 0
		}
		return 1
	}
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// ChiSquaredCDF returns P(X <= x) for X ~ chi-squared with k degrees of
// freedom, computed via the regularized lower incomplete gamma function.
func ChiSquaredCDF(x float64, k int) float64 {
	if x <= 0 || k <= 0 {
		return 0
	}
	return regularizedGammaP(float64(k)/2, x/2)
}

// ChiSquaredSurvival returns P(X > x) for X ~ chi-squared_k; this is the
// p-value of an observed likelihood-ratio statistic.
func ChiSquaredSurvival(x float64, k int) float64 {
	return 1 - ChiSquaredCDF(x, k)
}

// regularizedGammaP computes P(a, x), the regularized lower incomplete gamma
// function, using the series expansion for x < a+1 and the continued
// fraction for x >= a+1 (Numerical Recipes style).
func regularizedGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const itmax = 500
	const eps = 3e-14
	const fpmin = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
