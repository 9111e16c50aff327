package resources

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndComponents(t *testing.T) {
	v := New(1, 2, 3, 4)
	if v[CPU] != 1 || v[GPU] != 2 || v[GPUMem] != 3 || v[Mem] != 4 {
		t.Fatalf("component order wrong: %v", v)
	}
}

func TestDimString(t *testing.T) {
	cases := map[Dim]string{CPU: "cpu", GPU: "gpu", GPUMem: "gpumem", Mem: "mem"}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Dim(%d).String() = %q, want %q", d, got, want)
		}
	}
	if got := Dim(99).String(); got != "dim(99)" {
		t.Errorf("out-of-range Dim string = %q", got)
	}
}

func TestAddSub(t *testing.T) {
	v := New(10, 20, 30, 40)
	w := New(1, 2, 3, 4)
	if got := v.Add(w); got != New(11, 22, 33, 44) {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got != New(9, 18, 27, 36) {
		t.Errorf("Sub = %v", got)
	}
}

func TestScale(t *testing.T) {
	v := New(2, 4, 6, 8)
	if got := v.Scale(0.5); got != New(1, 2, 3, 4) {
		t.Errorf("Scale = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	v := New(1, 9, 3, 7)
	w := New(5, 2, 8, 4)
	if got := v.Min(w); got != New(1, 2, 3, 4) {
		t.Errorf("Min = %v", got)
	}
	if got := v.Max(w); got != New(5, 9, 8, 7) {
		t.Errorf("Max = %v", got)
	}
}

func TestClamp(t *testing.T) {
	v := New(-5, 50, 150, 100)
	if got := v.Clamp(0, 100); got != New(0, 50, 100, 100) {
		t.Errorf("Clamp = %v", got)
	}
	if got := New(-1, 0, 1, -2).ClampNonNegative(); got != New(0, 0, 1, 0) {
		t.Errorf("ClampNonNegative = %v", got)
	}
}

func TestFits(t *testing.T) {
	cap := Uniform(100)
	if !New(100, 100, 100, 100).Fits(cap) {
		t.Error("boundary vector should fit")
	}
	if New(100.0001, 0, 0, 0).Fits(cap) {
		t.Error("over-capacity vector should not fit")
	}
	if !New(94, 0, 0, 0).FitsWithin(cap, 5) {
		t.Error("94 should fit within 100 with slack 5")
	}
	if New(96, 0, 0, 0).FitsWithin(cap, 5) {
		t.Error("96 should not fit within 100 with slack 5")
	}
}

func TestMaxComponentAndDominant(t *testing.T) {
	v := New(10, 80, 30, 40)
	d, m := v.MaxComponent()
	if d != GPU || m != 80 {
		t.Errorf("MaxComponent = (%v, %v), want (GPU, 80)", d, m)
	}
	if v.Dominant() != 80 {
		t.Errorf("Dominant = %v", v.Dominant())
	}
}

func TestDistances(t *testing.T) {
	v := New(0, 0, 0, 0)
	w := New(3, 4, 0, 0)
	if got := v.Dist(w); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := v.Dist2(w); math.Abs(got-25) > 1e-12 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := w.L2(); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2 = %v, want 5", got)
	}
}

// TestDistIsSqrtDist2 pins Dist to the bits of its former definition,
// Sub(w).L2(), and to Sqrt(Dist2): callers that prune on squared distances
// rely on the two metrics ordering pairs identically.
func TestDistIsSqrtDist2(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scales := []float64{0, 1e-300, 1, 100, 1e6, 1e150}
	for trial := 0; trial < 20000; trial++ {
		var v, w Vector
		for d := range v {
			v[d] = (rng.Float64()*2 - 1) * scales[rng.Intn(len(scales))]
			w[d] = (rng.Float64()*2 - 1) * scales[rng.Intn(len(scales))]
			if rng.Intn(8) == 0 {
				w[d] = v[d]
			}
		}
		got := v.Dist(w)
		if old := v.Sub(w).L2(); math.Float64bits(got) != math.Float64bits(old) {
			t.Fatalf("Dist(%v, %v) = %v, Sub().L2() = %v", v, w, got, old)
		}
		if sq := math.Sqrt(v.Dist2(w)); math.Float64bits(got) != math.Float64bits(sq) {
			t.Fatalf("Dist(%v, %v) = %v, Sqrt(Dist2) = %v", v, w, got, sq)
		}
	}
}

func TestRatio(t *testing.T) {
	grant := New(50, 30, 0, 10)
	demand := New(100, 30, 0, 20)
	r := grant.Ratio(demand)
	if r[CPU] != 0.5 || r[GPU] != 1 || r[GPUMem] != 1 || r[Mem] != 0.5 {
		t.Errorf("Ratio = %v", r)
	}
	if got := grant.MinRatio(demand); got != 0.5 {
		t.Errorf("MinRatio = %v", got)
	}
	// x/0 with x > 0 is +Inf.
	inf := New(1, 0, 0, 0).Ratio(Zero)
	if !math.IsInf(inf[CPU], 1) {
		t.Errorf("1/0 ratio = %v, want +Inf", inf[CPU])
	}
}

func TestAggregates(t *testing.T) {
	vs := []Vector{New(10, 20, 30, 40), New(30, 10, 50, 20)}
	if got := Mean(vs); got != New(20, 15, 40, 30) {
		t.Errorf("Mean = %v", got)
	}
	if got := Sum(vs); got != New(40, 30, 80, 60) {
		t.Errorf("Sum = %v", got)
	}
	if got := PeakOf(vs); got != New(30, 20, 50, 40) {
		t.Errorf("PeakOf = %v", got)
	}
	if got := Mean(nil); got != Zero {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := PeakOf(nil); got != Zero {
		t.Errorf("PeakOf(nil) = %v", got)
	}
}

func TestIsZero(t *testing.T) {
	if !Zero.IsZero() {
		t.Error("Zero.IsZero() = false")
	}
	if New(0, 0, 0.001, 0).IsZero() {
		t.Error("nonzero vector reported zero")
	}
}

func TestString(t *testing.T) {
	got := New(1.25, 2, 3, 4).String()
	want := "cpu=1.2 gpu=2.0 gpumem=3.0 mem=4.0"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// randVec generates vectors with components in [0, 100] for property tests.
func randVec(r *rand.Rand) Vector {
	var v Vector
	for d := range v {
		v[d] = r.Float64() * 100
	}
	return v
}

func TestPropertyAddCommutative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		return v.Add(w) == w.Add(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySubInvertsAdd(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		got := v.Add(w).Sub(w)
		for d := range got {
			if math.Abs(got[d]-v[d]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyDistSymmetricNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, w := randVec(r), randVec(r)
		d1, d2 := v.Dist(w), w.Dist(v)
		return d1 >= 0 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randVec(r), randVec(r), randVec(r)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPeakDominatesAll(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		vs := make([]Vector, n)
		for i := range vs {
			vs[i] = randVec(r)
		}
		peak := PeakOf(vs)
		for _, v := range vs {
			if !v.Fits(peak) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyMeanBetweenMinAndMax(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		vs := make([]Vector, n)
		lo, hi := Uniform(math.Inf(1)), Uniform(math.Inf(-1))
		for i := range vs {
			vs[i] = randVec(r)
			lo = lo.Min(vs[i])
			hi = hi.Max(vs[i])
		}
		m := Mean(vs)
		for d := range m {
			if m[d] < lo[d]-1e-9 || m[d] > hi[d]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
