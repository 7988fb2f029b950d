package la

import (
	"math"
	"math/rand"
	"testing"
)

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrix(3, 3)
	vals := [][]float64{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	x, err := SolveDense(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestLUResidualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		// Diagonal boost keeps the matrix comfortably non-singular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Residual ‖A·x − b‖∞.
		res := 0.0
		for i := 0; i < n; i++ {
			r := -b[i]
			for j := 0; j < n; j++ {
				r += a.Data[i*n+j] * x[j]
			}
			res = math.Max(res, math.Abs(r))
		}
		if res > 1e-9 {
			t.Errorf("trial %d (n=%d): residual %v too large", trial, n, res)
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4)
	if _, err := Factorize(a); err == nil {
		t.Error("expected ErrSingular for rank-deficient matrix")
	}
}

func TestLUPivotingRequired(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := SolveDense(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveAliasing(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 2)
	f, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{8, 6}
	if err := f.Solve(b, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 || b[1] != 3 {
		t.Errorf("aliased solve = %v, want [2 3]", b)
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Errorf("AXPY = %v", y)
	}
}
