package core

// The float64 semirings the 2-D grid family (internal/grid2d) folds with.
// Natale's wavefront decomposition is algebra-agnostic: the cell update
// w[i,j] = (a ⊗ w[i-1,j]) ⊕ (b ⊗ w[i,j-1]) ⊕ (d ⊗ w[i-1,j-1]) ⊕ c only
// needs (⊕, ⊗) to distribute, so the op classification lives here in the
// kernel layer — the affine ring for linear recurrences, max-plus and
// min-plus for dynamic programming — instead of being hard-coded into one
// solver. The sequential oracle and the generic kernel fold every cell
// through GridCell; each built-in semiring also has a concrete row kernel
// that spells out the same fold — same term order, same comparisons — with
// the ops written inline, so bit-identity across the paths is a property of
// the code, checked by the grid2d tests and fuzzer.

// Semiring is a float64 semiring: the (⊕, ⊗) pair a 2-D recurrence cell
// update folds with. Implementations must be stateless value types; both
// methods must be pure so every dispatch path computes bit-identical
// results.
type Semiring interface {
	// SemiringName names the algebra as it appears on the wire and in plan
	// fingerprints ("affine", "maxplus", "minplus").
	SemiringName() string
	// Plus is ⊕, the combining operation (+, max, or min).
	Plus(x, y float64) float64
	// Times is ⊗, the scaling operation (×, or + for the tropical pair).
	Times(x, y float64) float64
}

// RingF64 is the ordinary affine ring: ⊕ = +, ⊗ = ×. It solves the linear
// grid recurrence w = a·up + b·left + d·diag + c.
type RingF64 struct{}

// SemiringName returns "affine".
func (RingF64) SemiringName() string { return "affine" }

// Plus returns x + y.
func (RingF64) Plus(x, y float64) float64 { return x + y }

// Times returns x · y.
func (RingF64) Times(x, y float64) float64 { return x * y }

// MaxPlusF64 is the max-plus tropical semiring: ⊕ = max, ⊗ = +. It turns
// the grid recurrence into a best-score dynamic program (Smith–Waterman,
// longest paths).
type MaxPlusF64 struct{}

// SemiringName returns "maxplus".
func (MaxPlusF64) SemiringName() string { return "maxplus" }

// Plus returns max(x, y); on a NaN operand the comparison fails closed and
// x wins, identically on every dispatch path.
func (MaxPlusF64) Plus(x, y float64) float64 {
	if y > x {
		return y
	}
	return x
}

// Times returns x + y.
func (MaxPlusF64) Times(x, y float64) float64 { return x + y }

// MinPlusF64 is the min-plus tropical semiring: ⊕ = min, ⊗ = +. It turns
// the grid recurrence into a least-cost dynamic program (edit distance,
// shortest paths).
type MinPlusF64 struct{}

// SemiringName returns "minplus".
func (MinPlusF64) SemiringName() string { return "minplus" }

// Plus returns min(x, y); on a NaN operand the comparison fails closed and
// x wins, identically on every dispatch path.
func (MinPlusF64) Plus(x, y float64) float64 {
	if y < x {
		return y
	}
	return x
}

// Times returns x + y.
func (MinPlusF64) Times(x, y float64) float64 { return x + y }

// GridKernel is the grid family's analogue of Kernel: an update of one run
// of consecutive cells in a grid row. The concrete kernels (GridKernelFor)
// are plain non-generic loops, one per built-in semiring, with ⊕ and ⊗
// written inline; the generic kernel (GridKernelGeneric) folds each cell
// through GridCell and the Semiring interface. Both fold in the same order,
// so they are bit-identical — which is exactly what the grid2d kernel
// toggle asserts.
type GridKernel interface {
	// UpdateRow solves row[t] for t in [0, len(row)), left to right. up[t]
	// is the solved cell above row[t]; left and diag are the solved cells
	// left of and above-left of row[0]. a, b, d and c are the run's
	// coefficients, each len(row) long, or nil for an absent term. It
	// returns the sum of v−v over the values written: 0 when every one is
	// finite, NaN otherwise.
	UpdateRow(row, up []float64, left, diag float64, a, b, d, c []float64) float64
}

// GridCell folds one cell update in the canonical term order — up, left,
// diagonal, constant, ⊕-folded left-associatively over the present terms —
// through interface dispatch. It is the sequential oracle's per-cell step
// and the generic kernel's; the concrete row kernels repeat this fold with
// the ops inlined.
func GridCell(ring Semiring, a, b, d, c []float64, cof int, up, left, diag float64) float64 {
	var acc float64
	has := false
	if a != nil {
		acc = ring.Times(a[cof], up)
		has = true
	}
	if b != nil {
		v := ring.Times(b[cof], left)
		if has {
			acc = ring.Plus(acc, v)
		} else {
			acc, has = v, true
		}
	}
	if d != nil {
		v := ring.Times(d[cof], diag)
		if has {
			acc = ring.Plus(acc, v)
		} else {
			acc, has = v, true
		}
	}
	if c != nil {
		if has {
			acc = ring.Plus(acc, c[cof])
		} else {
			acc = c[cof]
		}
	}
	return acc
}

// genericRows is the interface-dispatch row kernel: GridCell per cell.
type genericRows struct{ ring Semiring }

func (k genericRows) UpdateRow(row, up []float64, left, diag float64, a, b, d, c []float64) float64 {
	var bad float64
	for t := range row {
		v := GridCell(k.ring, a, b, d, c, t, up[t], left, diag)
		row[t] = v
		bad += v - v
		left, diag = v, up[t]
	}
	return bad
}

// affineRows is RingF64's row kernel. The explicit float64 conversions
// round each product before it is added, so no platform fuses a ⊗ and a ⊕
// into one FMA and drifts from GridCell.
type affineRows struct{}

func (affineRows) UpdateRow(row, up []float64, left, diag float64, a, b, d, c []float64) float64 {
	up = up[:len(row)]
	var bad float64
	for t := range row {
		u := up[t]
		var acc float64
		has := false
		if a != nil {
			acc, has = float64(a[t]*u), true
		}
		if b != nil {
			v := float64(b[t] * left)
			if has {
				acc += v
			} else {
				acc, has = v, true
			}
		}
		if d != nil {
			v := float64(d[t] * diag)
			if has {
				acc += v
			} else {
				acc, has = v, true
			}
		}
		if c != nil {
			if has {
				acc += c[t]
			} else {
				acc = c[t]
			}
		}
		row[t] = acc
		bad += acc - acc
		left, diag = acc, u
	}
	return bad
}

// maxPlusRows is MaxPlusF64's row kernel: ⊗ is +, and ⊕ keeps the running
// value unless the new term compares strictly greater (a NaN never wins).
type maxPlusRows struct{}

func (maxPlusRows) UpdateRow(row, up []float64, left, diag float64, a, b, d, c []float64) float64 {
	up = up[:len(row)]
	var bad float64
	for t := range row {
		u := up[t]
		var acc float64
		has := false
		if a != nil {
			acc, has = a[t]+u, true
		}
		if b != nil {
			if v := b[t] + left; !has || v > acc {
				acc = v
			}
			has = true
		}
		if d != nil {
			if v := d[t] + diag; !has || v > acc {
				acc = v
			}
			has = true
		}
		if c != nil {
			if v := c[t]; !has || v > acc {
				acc = v
			}
		}
		row[t] = acc
		bad += acc - acc
		left, diag = acc, u
	}
	return bad
}

// minPlusRows is MinPlusF64's row kernel: ⊗ is +, and ⊕ keeps the running
// value unless the new term compares strictly less (a NaN never wins).
type minPlusRows struct{}

func (minPlusRows) UpdateRow(row, up []float64, left, diag float64, a, b, d, c []float64) float64 {
	up = up[:len(row)]
	var bad float64
	for t := range row {
		u := up[t]
		var acc float64
		has := false
		if a != nil {
			acc, has = a[t]+u, true
		}
		if b != nil {
			if v := b[t] + left; !has || v < acc {
				acc = v
			}
			has = true
		}
		if d != nil {
			if v := d[t] + diag; !has || v < acc {
				acc = v
			}
			has = true
		}
		if c != nil {
			if v := c[t]; !has || v < acc {
				acc = v
			}
		}
		row[t] = acc
		bad += acc - acc
		left, diag = acc, u
	}
	return bad
}

// GridKernelFor returns the concrete row kernel of one of the built-in
// semirings, or nil for an unknown implementation (callers then fall back
// to GridKernelGeneric).
func GridKernelFor(ring Semiring) GridKernel {
	switch ring.(type) {
	case RingF64:
		return affineRows{}
	case MaxPlusF64:
		return maxPlusRows{}
	case MinPlusF64:
		return minPlusRows{}
	}
	return nil
}

// GridKernelGeneric returns the interface-dispatch row kernel over ring —
// the reference path the kernel kill switch (grid2d.SetKernelsEnabled)
// falls back to, bit-identical to the concrete kernels.
func GridKernelGeneric(ring Semiring) GridKernel {
	return genericRows{ring: ring}
}
