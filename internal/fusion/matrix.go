package fusion

import "fmt"

// Mat is a small dense row-major matrix: the LQR design's arithmetic and
// the filter's covariance export. A dedicated micro-implementation keeps
// the package dependency-free.
type Mat struct {
	r, c int
	a    []float64
}

// NewMat allocates an r×c zero matrix.
func NewMat(r, c int) Mat {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("fusion: invalid matrix dims %dx%d", r, c))
	}
	return Mat{r: r, c: c, a: make([]float64, r*c)}
}

// Eye returns the n×n identity.
func Eye(n int) Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the row count.
func (m Mat) Rows() int { return m.r }

// Cols returns the column count.
func (m Mat) Cols() int { return m.c }

// At returns element (i, j).
func (m Mat) At(i, j int) float64 { return m.a[i*m.c+j] }

// Set assigns element (i, j).
func (m Mat) Set(i, j int, v float64) { m.a[i*m.c+j] = v }

// Add returns m + n.
func (m Mat) Add(n Mat) Mat {
	m.mustSameShape(n)
	out := NewMat(m.r, m.c)
	for i := range m.a {
		out.a[i] = m.a[i] + n.a[i]
	}
	return out
}

// Sub returns m - n.
func (m Mat) Sub(n Mat) Mat {
	m.mustSameShape(n)
	out := NewMat(m.r, m.c)
	for i := range m.a {
		out.a[i] = m.a[i] - n.a[i]
	}
	return out
}

// Mul returns the matrix product m·n.
func (m Mat) Mul(n Mat) Mat {
	if m.c != n.r {
		panic(fmt.Sprintf("fusion: dimension mismatch %dx%d · %dx%d", m.r, m.c, n.r, n.c))
	}
	out := NewMat(m.r, n.c)
	for i := 0; i < m.r; i++ {
		for k := 0; k < m.c; k++ {
			mik := m.a[i*m.c+k]
			if mik == 0 {
				continue
			}
			for j := 0; j < n.c; j++ {
				out.a[i*n.c+j] += mik * n.a[k*n.c+j]
			}
		}
	}
	return out
}

// T returns the transpose.
func (m Mat) T() Mat {
	out := NewMat(m.c, m.r)
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Symmetrize returns (m + mᵀ)/2, used to keep covariance matrices from
// drifting asymmetric through floating-point round-off.
func (m Mat) Symmetrize() Mat {
	if m.r != m.c {
		panic("fusion: Symmetrize needs a square matrix")
	}
	out := NewMat(m.r, m.c)
	for i := 0; i < m.r; i++ {
		for j := 0; j < m.c; j++ {
			out.Set(i, j, (m.At(i, j)+m.At(j, i))/2)
		}
	}
	return out
}

// Inv returns the inverse via Gauss-Jordan with partial pivoting. It panics
// on singular input — in the EKF the matrices being inverted are innovation
// covariances, which are positive definite by construction; singularity
// indicates a programming error, not a data condition.
func (m Mat) Inv() Mat {
	if m.r != m.c {
		panic("fusion: Inv needs a square matrix")
	}
	n := m.r
	aug := NewMat(n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			aug.Set(i, j, m.At(i, j))
		}
		aug.Set(i, n+i, 1)
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs(aug.At(r, col)) > abs(aug.At(piv, col)) {
				piv = r
			}
		}
		if abs(aug.At(piv, col)) < 1e-14 {
			panic("fusion: singular matrix in Inv")
		}
		if piv != col {
			for j := 0; j < 2*n; j++ {
				a, b := aug.At(col, j), aug.At(piv, j)
				aug.Set(col, j, b)
				aug.Set(piv, j, a)
			}
		}
		d := aug.At(col, col)
		for j := 0; j < 2*n; j++ {
			aug.Set(col, j, aug.At(col, j)/d)
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug.At(r, col)
			if f == 0 {
				continue
			}
			for j := 0; j < 2*n; j++ {
				aug.Set(r, j, aug.At(r, j)-f*aug.At(col, j))
			}
		}
	}
	out := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, aug.At(i, n+j))
		}
	}
	return out
}

// Clone returns a deep copy.
func (m Mat) Clone() Mat {
	out := NewMat(m.r, m.c)
	copy(out.a, m.a)
	return out
}

func (m Mat) mustSameShape(n Mat) {
	if m.r != n.r || m.c != n.c {
		panic(fmt.Sprintf("fusion: shape mismatch %dx%d vs %dx%d", m.r, m.c, n.r, n.c))
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
