package workload

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// Empirical distribution checks run at a fixed seed so tolerances are
// exact-once thresholds, not flaky statistical gates.

func TestZipfMomentsWithinTolerance(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		s      float64
		draws  int
		relTol float64
	}{
		{"uniform", 256, 0, 200000, 0.10},
		{"classic", 1000, 1.1, 200000, 0.05},
		{"sharp", 1000, 1.4, 200000, 0.05},
		{"subcritical", 1000, 0.8, 200000, 0.05},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			z, err := NewZipf(tc.n, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			counts := make([]int, tc.n)
			var sumRank float64
			for i := 0; i < tc.draws; i++ {
				r := z.Rank(rng)
				if r < 0 || r >= tc.n {
					t.Fatalf("rank %d out of range", r)
				}
				counts[r]++
				sumRank += float64(r)
			}
			// First moment: empirical mean rank vs analytic mean.
			var mean float64
			for k := 0; k < tc.n; k++ {
				mean += float64(k) * z.P(k)
			}
			gotMean := sumRank / float64(tc.draws)
			if math.Abs(gotMean-mean) > tc.relTol*math.Max(mean, 1) {
				t.Errorf("mean rank = %.3f, analytic %.3f", gotMean, mean)
			}
			// Head mass: empirical P(rank 0) vs analytic.
			got0 := float64(counts[0]) / float64(tc.draws)
			if math.Abs(got0-z.P(0)) > tc.relTol*z.P(0) {
				t.Errorf("P(0) = %.5f, analytic %.5f", got0, z.P(0))
			}
			if tc.s == 0 {
				// Uniform: analytic head mass must be exactly 1/n.
				if math.Abs(z.P(0)-1/float64(tc.n)) > 1e-12 {
					t.Errorf("uniform P(0) = %g, want %g", z.P(0), 1/float64(tc.n))
				}
			}
		})
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	z := MustZipf(5000, 1.2)
	a, b := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	diffSeed := rand.New(rand.NewSource(4))
	same := true
	for i := 0; i < 1000; i++ {
		x, y := z.Rank(a), z.Rank(b)
		if x != y {
			t.Fatalf("draw %d differs across identical seeds: %d vs %d", i, x, y)
		}
		if x != z.Rank(diffSeed) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestZipfValidation(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-3, 1}, {10, -0.5}, {10, math.NaN()}, {10, math.Inf(1)}} {
		if _, err := NewZipf(tc.n, tc.s); err == nil {
			t.Errorf("NewZipf(%d, %g) accepted", tc.n, tc.s)
		}
	}
}

func TestZipfSplitByRank(t *testing.T) {
	z := MustZipf(32, 1.0)
	parts := z.SplitByRank(100000, 16)
	sum := 0
	for i, p := range parts {
		sum += p
		if p < 16 {
			t.Errorf("part %d = %d below floor", i, p)
		}
		if i > 0 && p > parts[i-1] {
			t.Errorf("parts not non-increasing at %d: %d > %d", i, p, parts[i-1])
		}
	}
	if sum != 100000 {
		t.Errorf("parts sum to %d, want 100000", sum)
	}
	if parts[0] <= parts[31]*4 {
		t.Errorf("head tenant %d not clearly larger than tail %d", parts[0], parts[31])
	}
}

func TestScaleDeterministicPerSeed(t *testing.T) {
	cfg := ScaleConfig{Objects: 5000, Tenants: 8, Seed: 21}
	a, err := NewScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewScale(cfg)
	for i := range a.Objects {
		if a.Objects[i] != b.Objects[i] {
			t.Fatalf("object %d differs across identical seeds", i)
		}
	}
	cfg.Seed = 22
	c, _ := NewScale(cfg)
	same := true
	for i := range a.Objects {
		if a.Objects[i] != c.Objects[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestScaleLayout(t *testing.T) {
	s, err := NewScale(ScaleConfig{Objects: 20000, Tenants: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for t2 := 0; t2 < 16; t2++ {
		size := s.TenantSize(t2)
		total += size
		objs := s.TenantObjects(t2)
		if len(objs) != size {
			t.Fatalf("tenant %d: subslice %d != size %d", t2, len(objs), size)
		}
		for i, o := range objs {
			if o.Tenant != t2 {
				t.Fatalf("tenant %d object %d labeled %d", t2, i, o.Tenant)
			}
			if o.Key != s.TenantStart(t2)+int64(i) {
				t.Fatalf("tenant %d object %d has key %d", t2, i, o.Key)
			}
		}
	}
	if total != 20000 {
		t.Errorf("tenant sizes sum to %d", total)
	}
	for k, o := range s.Objects {
		if o.Key != int64(k) {
			t.Fatalf("Objects[%d].Key = %d", k, o.Key)
		}
		if o.Region < 0 || o.Region >= 8 {
			t.Errorf("object %d region %d out of range", k, o.Region)
		}
		if o.Cost < 1 || o.Cost > 10 || o.Cost != math.Trunc(o.Cost) {
			t.Errorf("object %d cost %g not an integer in [1,10]", k, o.Cost)
		}
	}
}

func TestScaleValidation(t *testing.T) {
	if _, err := NewScale(ScaleConfig{Objects: 0, Tenants: 1}); err == nil {
		t.Error("0-object scale accepted")
	}
	if _, err := NewScale(ScaleConfig{Objects: 10, Tenants: 0}); err == nil {
		t.Error("0-tenant scale accepted")
	}
	if _, err := NewScale(ScaleConfig{Objects: 10, Tenants: 8}); err == nil {
		t.Error("under-floored tenants accepted")
	}
}

func TestScaleObjectStepDeterministicAndClamped(t *testing.T) {
	s, _ := NewScale(ScaleConfig{Objects: 100, Tenants: 2, Seed: 9})
	o1, o2 := s.Objects[3], s.Objects[3]
	r1, r2 := rand.New(rand.NewSource(77)), rand.New(rand.NewSource(77))
	for i := 0; i < 200; i++ {
		v1, v2 := o1.Step(r1, 1), o2.Step(r2, 1)
		for j := range v1 {
			if v1[j] != v2[j] {
				t.Fatalf("step %d differs across identical rng streams", i)
			}
			if v1[j] < 0 {
				t.Fatalf("step %d produced negative value %g", i, v1[j])
			}
		}
	}
	// Burst scaling amplifies displacement on the same rng stream.
	base, burst := s.Objects[5], s.Objects[5]
	rb1, rb2 := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
	var dBase, dBurst float64
	for i := 0; i < 500; i++ {
		base.Step(rb1, 1)
		burst.Step(rb2, 8)
	}
	dBase = math.Abs(base.Value-s.Objects[5].Value) + math.Abs(base.Load-s.Objects[5].Load)
	dBurst = math.Abs(burst.Value-s.Objects[5].Value) + math.Abs(burst.Load-s.Objects[5].Load)
	if dBurst <= dBase {
		t.Errorf("burst displacement %g not larger than baseline %g", dBurst, dBase)
	}
}

func TestScaleCorpusShapes(t *testing.T) {
	a, b := ScaleCorpus(), ScaleCorpus()
	if len(a) < 8 {
		t.Fatalf("corpus has only %d shapes", len(a))
	}
	if len(a) != len(b) {
		t.Fatal("corpus not deterministic")
	}
	sawGroup, sawTenant := false, false
	for i, q := range a {
		if q != b[i] {
			t.Fatalf("corpus entry %d differs across calls", i)
		}
		if len(q) == 0 {
			t.Fatal("empty corpus entry")
		}
		if strings.Contains(q, "GROUP BY region") {
			sawGroup = true
		}
		if strings.Contains(q, "tenant_") {
			sawTenant = true
		}
	}
	if !sawGroup || !sawTenant {
		t.Errorf("corpus missing shapes: group=%v tenant=%v", sawGroup, sawTenant)
	}
}
