package stats

import "math"

// ChiSquared returns the chi-squared independence statistic and its degrees
// of freedom for the contingency table. Cells with zero expected count are
// skipped. Marginals are visited in sorted key order so the statistic is
// bit-for-bit reproducible across runs.
func ChiSquared(c *Contingency) (stat float64, dof int) {
	if c.N == 0 {
		return 0, 0
	}
	n := float64(c.N)
	rows := sortedKeys(c.RowSum)
	cols := sortedKeys(c.ColSum)
	for _, rx := range rows {
		a := c.RowSum[rx]
		for _, cy := range cols {
			b := c.ColSum[cy]
			expected := float64(a) * float64(b) / n
			//fdx:lint-ignore floatcmp marginal counts are >=1 so expected>0; defensive exact-zero guard against division by zero
			if expected == 0 {
				continue
			}
			observed := float64(c.Joint[[2]int{rx, cy}])
			d := observed - expected
			stat += d * d / expected
		}
	}
	dof = (len(c.RowSum) - 1) * (len(c.ColSum) - 1)
	if dof < 0 {
		dof = 0
	}
	return stat, dof
}

// ChiSquaredPValue returns P(X² ≥ stat) for a chi-squared distribution with
// dof degrees of freedom, i.e. the upper regularized incomplete gamma
// Q(dof/2, stat/2).
func ChiSquaredPValue(stat float64, dof int) float64 {
	if dof <= 0 || stat <= 0 {
		return 1
	}
	return gammaQ(float64(dof)/2, stat/2)
}

// gammaQ computes the upper regularized incomplete gamma function Q(a, x)
// using the series expansion for x < a+1 and the continued fraction
// otherwise (Numerical Recipes style).
// (fdx:numeric-kernel: x == 0 is the exact boundary value Q(a,0)=1.)
func gammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQContinued(a, x)
}

func gammaPSeries(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinued(a, x float64) float64 {
	const itmax = 500
	const eps = 1e-14
	const fpmin = 1e-300
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
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
