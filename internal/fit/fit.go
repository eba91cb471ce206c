// Package fit reproduces the paper's curve-fitting methodology (§4.3.2):
// linear regression, the Morgan-Mercer-Flodin (MMF) growth curve, and the
// Hoerl curve, scored by root-mean-square error. The paper fed half its
// data points to CurveExpert, asked for the best fits, scored candidates
// by RMSE over all points, and extrapolated with the winner; TrainHalf
// implements exactly that protocol.
//
//	linear:  y = a + b·x
//	MMF:     y = (a·b + c·x^d) / (b + x^d)
//	Hoerl:   y = a · bˣ · x^c
//
// Linear and Hoerl have closed-form solutions (Hoerl via log
// linearization); MMF is fitted by Gauss-Newton with Levenberg-Marquardt
// damping and a numeric Jacobian.
package fit

import (
	"errors"
	"fmt"
	"math"
)

// Curve is a fitted model.
type Curve interface {
	Name() string
	Eval(x float64) float64
	Params() []float64
}

// Fitter fits a curve family to points.
type Fitter interface {
	Name() string
	Fit(xs, ys []float64) (Curve, error)
}

// Errors.
var (
	ErrTooFewPoints = errors.New("fit: too few points")
	ErrBadDomain    = errors.New("fit: x values must be positive for this family")
	ErrSingular     = errors.New("fit: singular normal equations")
	ErrNoConverge   = errors.New("fit: did not converge")
)

// RMSE is the root-mean-square error of curve c over the points.
func RMSE(c Curve, xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for i := range xs {
		d := c.Eval(xs[i]) - ys[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// ---------------------------------------------------------------------------
// Linear regression.

// Linear is y = a + b·x.
type Linear struct{ A, B float64 }

// Name implements Curve.
func (l Linear) Name() string { return "linear" }

// Eval implements Curve.
func (l Linear) Eval(x float64) float64 { return l.A + l.B*x }

// Params implements Curve.
func (l Linear) Params() []float64 { return []float64{l.A, l.B} }

// LinearFitter fits by ordinary least squares.
type LinearFitter struct{}

// Name implements Fitter.
func (LinearFitter) Name() string { return "linear" }

// Fit implements Fitter.
func (LinearFitter) Fit(xs, ys []float64) (Curve, error) {
	if len(xs) < 2 || len(xs) != len(ys) {
		return nil, ErrTooFewPoints
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return nil, ErrSingular
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	return Linear{A: a, B: b}, nil
}

// ---------------------------------------------------------------------------
// Hoerl curve.

// Hoerl is y = a · bˣ · x^c.
type Hoerl struct{ A, B, C float64 }

// Name implements Curve.
func (h Hoerl) Name() string { return "hoerl" }

// Eval implements Curve.
func (h Hoerl) Eval(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	return h.A * math.Pow(h.B, x) * math.Pow(x, h.C)
}

// Params implements Curve.
func (h Hoerl) Params() []float64 { return []float64{h.A, h.B, h.C} }

// HoerlFitter fits by log-linearization: ln y = ln a + x·ln b + c·ln x,
// an ordinary least squares problem in (1, x, ln x).
type HoerlFitter struct{}

// Name implements Fitter.
func (HoerlFitter) Name() string { return "hoerl" }

// Fit implements Fitter.
func (HoerlFitter) Fit(xs, ys []float64) (Curve, error) {
	if len(xs) < 3 || len(xs) != len(ys) {
		return nil, ErrTooFewPoints
	}
	rows := make([][3]float64, 0, len(xs))
	rhs := make([]float64, 0, len(xs))
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue // log-linearization needs positive values
		}
		rows = append(rows, [3]float64{1, xs[i], math.Log(xs[i])})
		rhs = append(rhs, math.Log(ys[i]))
	}
	if len(rows) < 3 {
		return nil, ErrBadDomain
	}
	// Normal equations AᵀA p = Aᵀy for p = (ln a, ln b, c).
	a := augmented(3)
	for r := range rows {
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				a[i][j] += rows[r][i] * rows[r][j]
			}
			a[i][3] += rows[r][i] * rhs[r]
		}
	}
	p, err := solve(a)
	if err != nil {
		return nil, err
	}
	return Hoerl{A: math.Exp(p[0]), B: math.Exp(p[1]), C: p[2]}, nil
}

// augmented returns an n×(n+1) zero matrix: a linear system's
// coefficients, with its right-hand side as the last column.
func augmented(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n+1)
	}
	return a
}

// solve solves the n×n system whose augmented matrix is a, by
// Gaussian elimination with partial pivoting. It overwrites a.
func solve(a [][]float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = a[i][n] / a[i][i]
	}
	return x, nil
}

// ---------------------------------------------------------------------------
// MMF curve via Levenberg-Marquardt.

// MMF is the Morgan-Mercer-Flodin growth curve
// y = (a·b + c·x^d)/(b + x^d): y→a as x→0 and y→c as x→∞, which is why it
// suits saturating memory growth (Fig 17).
type MMF struct{ A, B, C, D float64 }

// Name implements Curve.
func (m MMF) Name() string { return "mmf" }

// Eval implements Curve.
func (m MMF) Eval(x float64) float64 {
	if x < 0 {
		return math.NaN()
	}
	xd := math.Pow(x, m.D)
	return (m.A*m.B + m.C*xd) / (m.B + xd)
}

// Params implements Curve.
func (m MMF) Params() []float64 { return []float64{m.A, m.B, m.C, m.D} }

// MMFFitter fits by damped Gauss-Newton (Levenberg-Marquardt) with a
// numeric Jacobian, starting from data-driven initial guesses.
type MMFFitter struct {
	// MaxIter bounds LM iterations (default 200).
	MaxIter int
}

// Name implements Fitter.
func (MMFFitter) Name() string { return "mmf" }

// Fit implements Fitter.
func (f MMFFitter) Fit(xs, ys []float64) (Curve, error) {
	if len(xs) < 4 || len(xs) != len(ys) {
		return nil, ErrTooFewPoints
	}
	for _, x := range xs {
		if x < 0 {
			return nil, ErrBadDomain
		}
	}
	maxIter := f.MaxIter
	if maxIter == 0 {
		maxIter = 200
	}
	// Initial guesses: a ≈ y at smallest x, c ≈ y at largest x, d = 1,
	// b ≈ median x (the half-saturation point for d=1).
	minI, maxI := 0, 0
	for i := range xs {
		if xs[i] < xs[minI] {
			minI = i
		}
		if xs[i] > xs[maxI] {
			maxI = i
		}
	}
	p := [4]float64{ys[minI], math.Max(xs[maxI]/2, 1), ys[maxI], 1}

	resid := func(p [4]float64) []float64 {
		c := MMF{p[0], p[1], p[2], p[3]}
		r := make([]float64, len(xs))
		for i := range xs {
			r[i] = c.Eval(xs[i]) - ys[i]
		}
		return r
	}
	sumsq := func(r []float64) float64 {
		var s float64
		for _, v := range r {
			s += v * v
		}
		return s
	}

	lambda := 1e-3
	cur := resid(p)
	curSS := sumsq(cur)
	for iter := 0; iter < maxIter; iter++ {
		// Numeric Jacobian.
		var jt [4][]float64
		for k := 0; k < 4; k++ {
			dp := p
			h := 1e-6 * math.Max(math.Abs(p[k]), 1e-3)
			dp[k] += h
			rp := resid(dp)
			col := make([]float64, len(cur))
			for i := range cur {
				col[i] = (rp[i] - cur[i]) / h
			}
			jt[k] = col
		}
		// Normal equations (JᵀJ + λ·diag) δ = -Jᵀr.
		a := augmented(4)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				var s float64
				for r := range cur {
					s += jt[i][r] * jt[j][r]
				}
				a[i][j] = s
			}
			var s float64
			for r := range cur {
				s += jt[i][r] * cur[r]
			}
			a[i][4] = -s
		}
		for i := 0; i < 4; i++ {
			a[i][i] *= 1 + lambda
			if a[i][i] == 0 {
				a[i][i] = lambda
			}
		}
		delta, err := solve(a)
		if err != nil {
			lambda *= 10
			if lambda > 1e12 {
				break
			}
			continue
		}
		next := p
		for k := 0; k < 4; k++ {
			next[k] += delta[k]
		}
		if next[1] <= 0 { // b must stay positive
			next[1] = p[1] / 2
		}
		nr := resid(next)
		nss := sumsq(nr)
		if math.IsNaN(nss) || nss >= curSS {
			lambda *= 10
			if lambda > 1e12 {
				break
			}
			continue
		}
		improvement := (curSS - nss) / math.Max(curSS, 1e-300)
		p, cur, curSS = next, nr, nss
		lambda = math.Max(lambda/10, 1e-12)
		if improvement < 1e-12 {
			break
		}
	}
	if math.IsNaN(curSS) || math.IsInf(curSS, 0) {
		return nil, ErrNoConverge
	}
	return MMF{p[0], p[1], p[2], p[3]}, nil
}

// ---------------------------------------------------------------------------
// The paper's model-selection protocol.

// Candidate pairs a fitted curve (trained on the first half of the data)
// with its RMSE over all points.
type Candidate struct {
	Curve Curve
	RMSE  float64
	Err   error // non-nil if the family failed to fit
}

// TrainHalf fits each family on the first half of the points and scores
// RMSE over all points (§4.3.2's selection protocol). Results are keyed
// by family name.
func TrainHalf(fitters []Fitter, xs, ys []float64) map[string]Candidate {
	half := len(xs) / 2
	if half < 2 {
		half = len(xs)
	}
	out := make(map[string]Candidate, len(fitters))
	for _, f := range fitters {
		c, err := f.Fit(xs[:half], ys[:half])
		if err != nil {
			out[f.Name()] = Candidate{Err: err}
			continue
		}
		out[f.Name()] = Candidate{Curve: c, RMSE: RMSE(c, xs, ys)}
	}
	return out
}

// SelectBest returns the candidate with the lowest RMSE, as the paper
// does before refitting the winner on all points.
func SelectBest(cands map[string]Candidate) (string, Candidate, error) {
	bestName := ""
	var best Candidate
	for name, c := range cands {
		if c.Err != nil {
			continue
		}
		if bestName == "" || c.RMSE < best.RMSE {
			bestName, best = name, c
		}
	}
	if bestName == "" {
		return "", Candidate{}, fmt.Errorf("fit: no family converged")
	}
	return bestName, best, nil
}

// DefaultFitters is the paper's candidate set.
func DefaultFitters() []Fitter {
	return []Fitter{LinearFitter{}, MMFFitter{}, HoerlFitter{}}
}
