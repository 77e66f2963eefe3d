package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestGeMMKnownResult(t *testing.T) {
	a := FromRows([][]float32{{1, 2}, {3, 4}})
	b := FromRows([][]float32{{5, 6}, {7, 8}})
	c := GeMM(a, b)
	want := [][]float32{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestGeMMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(5, 5)
	for i := range a.Data {
		a.Data[i] = rng.Float32()
	}
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := GeMM(a, id)
	for i := range a.Data {
		if c.Data[i] != a.Data[i] {
			t.Fatalf("A×I != A at %d", i)
		}
	}
}

func TestGeMMShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch accepted")
		}
	}()
	GeMM(NewMatrix(2, 3), NewMatrix(2, 3))
}

// Property: (A×B)ᵀ == Bᵀ×Aᵀ within float tolerance.
func TestGeMMTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 2+rng.Intn(6), 2+rng.Intn(6), 2+rng.Intn(6)
		a, b := NewMatrix(m, k), NewMatrix(k, n)
		for i := range a.Data {
			a.Data[i] = rng.Float32() - 0.5
		}
		for i := range b.Data {
			b.Data[i] = rng.Float32() - 0.5
		}
		left := GeMM(a, b).Transpose()
		right := GeMM(b.Transpose(), a.Transpose())
		for i := range left.Data {
			if !almostEq(left.Data[i], right.Data[i], 1e-4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMatVecMatchesGeMM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMatrix(4, 6)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	x := make([]float32, 6)
	for i := range x {
		x[i] = rng.Float32()
	}
	y := MatVec(m, x)
	xm := NewMatrix(6, 1)
	copy(xm.Data, x)
	ym := GeMM(m, xm)
	for i := range y {
		if !almostEq(y[i], ym.At(i, 0), 1e-5) {
			t.Fatalf("MatVec[%d] = %v, GeMM gives %v", i, y[i], ym.At(i, 0))
		}
	}
}

func TestGeMMFLOPs(t *testing.T) {
	if got := GeMMFLOPs(16, 96, 1000); got != 2*16*96*1000 {
		t.Errorf("GeMMFLOPs = %v", got)
	}
}

func TestSquaredL2(t *testing.T) {
	p := []float32{1, 2, 3}
	q := []float32{4, 6, 3}
	if d := SquaredL2(p, q); d != 25 {
		t.Errorf("SquaredL2 = %v, want 25", d)
	}
	if d := SquaredL2(p, p); d != 0 {
		t.Errorf("self distance = %v, want 0", d)
	}
}

// Property: Nearest returns the plain arg-min scan's row (lowest index on
// ties) for any dimension, with or without a bound set to a reachable
// distance, and -1 when the bound is below every distance.
func TestNearestMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(20)
		rows := NewMatrix(1+rng.Intn(12), d)
		for i := range rows.Data {
			rows.Data[i] = float32(rng.Intn(3)) // small integers: many exact ties
		}
		q := make([]float32, d)
		for i := range q {
			q[i] = float32(rng.Intn(3))
		}
		best, bestD := 0, SquaredL2(q, rows.Row(0))
		for c := 1; c < rows.Rows; c++ {
			if dist := SquaredL2(q, rows.Row(c)); dist < bestD {
				best, bestD = c, dist
			}
		}
		known := SquaredL2(q, rows.Row(rng.Intn(rows.Rows)))
		for _, bound := range []float32{float32(math.Inf(1)), known, bestD} {
			if c, dist := Nearest(rows, q, bound); c != best || dist != bestD {
				return false
			}
		}
		c, _ := Nearest(rows, q, bestD-0.5)
		return c == -1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the Eq. 1 decomposition ‖q‖²+‖c‖²−2⟨q,c⟩ equals the direct
// Eq. 2 computation.
func TestEq1DecompositionMatchesEq2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const B, D, M = 3, 8, 5
		queries := NewMatrix(B, D)
		for i := range queries.Data {
			queries.Data[i] = rng.Float32() - 0.5
		}
		centroids := NewMatrix(M, D)
		for i := range centroids.Data {
			centroids.Data[i] = rng.Float32() - 0.5
		}
		norms := make([]float32, M)
		for m := 0; m < M; m++ {
			norms[m] = SquaredNorm(centroids.Row(m))
		}
		dists := BatchDistances(queries, centroids.Transpose(), norms)
		for b := 0; b < B; b++ {
			for m := 0; m < M; m++ {
				direct := SquaredL2(queries.Row(b), centroids.Row(m))
				if !almostEq(dists.At(b, m), direct, 1e-4) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTopKSelectsSmallest(t *testing.T) {
	sel := NewTopK(3)
	dists := []float32{5, 1, 9, 3, 7, 2, 8}
	for i, d := range dists {
		sel.Offer(i, d)
	}
	res := sel.Results()
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	wantIDs := []int{1, 5, 3} // dists 1, 2, 3
	for i, want := range wantIDs {
		if res[i].ID != want {
			t.Errorf("result[%d] = %+v, want ID %d", i, res[i], want)
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	sel := NewTopK(10)
	sel.Offer(0, 1)
	sel.Offer(1, 0.5)
	res := sel.Results()
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 0 {
		t.Errorf("results = %v", res)
	}
}

func TestTopKDeterministicTies(t *testing.T) {
	a := NewTopK(2)
	for _, id := range []int{5, 3, 9, 1} {
		a.Offer(id, 1.0)
	}
	res := a.Results()
	if res[0].ID != 1 || res[1].ID != 3 {
		t.Errorf("tie-break results = %v, want IDs 1,3", res)
	}
}

func TestTopKMergeEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := NewTopK(10)
	parts := []*TopK{NewTopK(10), NewTopK(10), NewTopK(10)}
	for i := 0; i < 300; i++ {
		d := rng.Float32()
		all.Offer(i, d)
		parts[i%3].Offer(i, d)
	}
	merged := NewTopK(10)
	for _, p := range parts {
		merged.Merge(p)
	}
	a, b := all.Results(), merged.Results()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("merged[%d] = %+v, want %+v", i, b[i], a[i])
		}
	}
}

// Property: TopK(k) over any stream returns exactly the k smallest
// (id, dist) pairs a full sort would produce.
func TestTopKMatchesFullSort(t *testing.T) {
	f := func(seed int64, kSeed uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kSeed%10)
		n := 1 + rng.Intn(100)
		sel := NewTopK(k)
		type pair struct {
			id int
			d  float32
		}
		items := make([]pair, n)
		for i := range items {
			items[i] = pair{i, float32(rng.Intn(20))} // many ties
			sel.Offer(items[i].id, items[i].d)
		}
		// Reference: full selection sort of all items.
		ref := make([]pair, len(items))
		copy(ref, items)
		for i := range ref {
			for j := i + 1; j < len(ref); j++ {
				if ref[j].d < ref[i].d || (ref[j].d == ref[i].d && ref[j].id < ref[i].id) {
					ref[i], ref[j] = ref[j], ref[i]
				}
			}
		}
		want := k
		if n < k {
			want = n
		}
		got := sel.Results()
		if len(got) != want {
			return false
		}
		for i := 0; i < want; i++ {
			if got[i].ID != ref[i].id || got[i].Dist != ref[i].d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBruteForceKNNAndRecall(t *testing.T) {
	db := FromRows([][]float32{
		{0, 0}, {1, 0}, {0, 1}, {5, 5}, {6, 6},
	})
	q := []float32{0.1, 0.1}
	nn := BruteForceKNN(db, q, 3)
	if nn[0].ID != 0 {
		t.Errorf("nearest = %d, want 0", nn[0].ID)
	}
	ids := map[int]bool{nn[0].ID: true, nn[1].ID: true, nn[2].ID: true}
	if !ids[0] || !ids[1] || !ids[2] {
		t.Errorf("3-NN = %v, want {0,1,2}", nn)
	}
	if r := RecallAtK(nn, nn); r != 1.0 {
		t.Errorf("self recall = %v", r)
	}
	partial := []Neighbor{{ID: 0}, {ID: 99}}
	if r := RecallAtK(partial, nn); math.Abs(r-1.0/3.0) > 1e-9 {
		t.Errorf("recall = %v, want 1/3", r)
	}
	if !math.IsNaN(RecallAtK(nn, nil)) {
		t.Error("recall with empty truth should be NaN")
	}
}

func TestConv2DIdentityKernel(t *testing.T) {
	in := NewTensor3(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	p := NewConvParams(1, 1, 3)
	p.Weights[4] = 1 // centre tap: identity
	out := Conv2D(in, p)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity conv changed data at %d: %v != %v", i, out.Data[i], in.Data[i])
		}
	}
}

func TestConv2DSumKernelInterior(t *testing.T) {
	in := NewTensor3(1, 5, 5)
	for i := range in.Data {
		in.Data[i] = 1
	}
	p := NewConvParams(1, 1, 3)
	for i := range p.Weights {
		p.Weights[i] = 1
	}
	p.Bias[0] = 0.5
	out := Conv2D(in, p)
	// Interior: 9 ones + bias.
	if got := out.At(0, 2, 2); got != 9.5 {
		t.Errorf("interior = %v, want 9.5", got)
	}
	// Corner: 4 ones + bias (zero padding).
	if got := out.At(0, 0, 0); got != 4.5 {
		t.Errorf("corner = %v, want 4.5", got)
	}
}

func TestConv2DMultiChannel(t *testing.T) {
	in := NewTensor3(2, 3, 3)
	for i := range in.Data {
		in.Data[i] = 1
	}
	p := NewConvParams(3, 2, 1) // 1×1 conv: channel mixing only
	for o := 0; o < 3; o++ {
		for c := 0; c < 2; c++ {
			p.Weights[o*2+c] = float32(o + 1)
		}
	}
	out := Conv2D(in, p)
	for o := 0; o < 3; o++ {
		want := float32(2 * (o + 1))
		if got := out.At(o, 1, 1); got != want {
			t.Errorf("out ch %d = %v, want %v", o, got, want)
		}
	}
}

func TestReLU(t *testing.T) {
	tns := NewTensor3(1, 1, 4)
	copy(tns.Data, []float32{-1, 2, -3, 4})
	ReLU(tns)
	want := []float32{0, 2, 0, 4}
	for i := range want {
		if tns.Data[i] != want[i] {
			t.Errorf("ReLU[%d] = %v, want %v", i, tns.Data[i], want[i])
		}
	}
}

func TestMaxPool2x2(t *testing.T) {
	in := NewTensor3(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := MaxPool2x2(in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pooled shape = %dx%d, want 2x2", out.H, out.W)
	}
	// Window maxima of row-major 0..15.
	want := []float32{5, 7, 13, 15}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Errorf("pool[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestFullyConnected(t *testing.T) {
	w := FromRows([][]float32{{1, 2}, {3, 4}})
	y := FullyConnected([]float32{1, 1}, w, []float32{10, 20})
	if y[0] != 13 || y[1] != 27 {
		t.Errorf("FC = %v, want [13 27]", y)
	}
}

func TestPCAProject(t *testing.T) {
	comp := FromRows([][]float32{{1, 0, 0}, {0, 0, 1}})
	got := PCAProject([]float32{3, 9, 5}, []float32{1, 1, 1}, comp)
	if got[0] != 2 || got[1] != 4 {
		t.Errorf("PCA = %v, want [2 4]", got)
	}
}

func TestL2Normalize(t *testing.T) {
	v := L2Normalize([]float32{3, 4})
	if !almostEq(v[0], 0.6, 1e-6) || !almostEq(v[1], 0.8, 1e-6) {
		t.Errorf("normalised = %v", v)
	}
	z := L2Normalize([]float32{0, 0})
	if z[0] != 0 || z[1] != 0 {
		t.Error("zero vector changed")
	}
	if n := SquaredNorm(v); !almostEq(n, 1, 1e-6) {
		t.Errorf("norm after normalise = %v", n)
	}
}

func TestConv2DMACs(t *testing.T) {
	// VGG conv1_1: 224×224×3→64, 3×3 = 86.7 MMACs.
	got := Conv2DMACs(224, 224, 3, 64, 3)
	want := 224.0 * 224 * 3 * 64 * 9
	if got != want {
		t.Errorf("Conv2DMACs = %v, want %v", got, want)
	}
}
