package workload

import (
	"fmt"
	"math/rand"

	"trapp/internal/relation"
)

// ScaleConfig parameterizes the adversarial multi-tenant workload: a
// population of Objects spread over Tenants tables (sizes Zipfian in
// TenantSkew, so tenant 0 is a megatenant and the tail stays small),
// each object carrying two bounded measurements driven by Gaussian
// walks plus an exact region dimension for grouping. Unlike the
// network/stockday generators — a few thousand objects, each owning
// private rng state — this one is sized for 10⁵–10⁶ objects, so
// objects hold only their walk state and are stepped with a
// caller-owned rng.
type ScaleConfig struct {
	// Objects is the total object population across all tenants.
	Objects int
	// Tenants is the number of tenant tables (tenant_0 .. tenant_{n-1}).
	Tenants int
	// Regions is the cardinality of the exact region column (default 8).
	Regions int
	// TenantSkew is the Zipf exponent for tenant sizing (default 1.0).
	TenantSkew float64
	// MinPerTenant floors every tenant's size (default 16).
	MinPerTenant int
	// Seed makes generation deterministic.
	Seed int64
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Regions == 0 {
		c.Regions = 8
	}
	if c.TenantSkew == 0 {
		c.TenantSkew = 1.0
	}
	if c.MinPerTenant == 0 {
		c.MinPerTenant = 16
	}
	return c
}

// ScaleObject is one monitored object: its key is its global index, its
// master values evolve as two clamped Gaussian walks stepped by the
// harness. The struct is deliberately flat (no per-object rng) so a
// million of them fit in tens of megabytes.
type ScaleObject struct {
	// Key is the globally unique object key (== global index).
	Key int64
	// Tenant is the owning tenant index.
	Tenant int
	// Region is the exact grouping dimension, in [0, Regions).
	Region int64
	// Cost is the refresh cost, an integer in [1, 10].
	Cost float64
	// Value and Load are the current master measurements.
	Value, Load float64

	sigmaV, sigmaL float64
}

// Values returns the object's current bounded measurements (value,
// load) — the payload a source pushes; the exact region column is
// fixed at subscription time.
func (o *ScaleObject) Values() []float64 {
	return []float64{o.Value, o.Load}
}

// Step advances both walks one update with step size scaled by burst
// (1.0 = baseline volatility) using the caller's rng, and returns the
// new measurements. Values clamp at zero.
func (o *ScaleObject) Step(rng *rand.Rand, burst float64) []float64 {
	o.Value += rng.NormFloat64() * o.sigmaV * burst
	if o.Value < 0 {
		o.Value = 0
	}
	o.Load += rng.NormFloat64() * o.sigmaL * burst
	if o.Load < 0 {
		o.Load = 0
	}
	return o.Values()
}

// Scale is the generated population plus its tenant layout. Keys are
// assigned in ascending order tenant by tenant, so loading a tenant
// table inserts in sorted order (O(1) appends in the sharded store).
type Scale struct {
	// Config echoes the (defaulted) generation parameters.
	Config ScaleConfig
	// Objects holds all objects ordered by key; Objects[k].Key == k.
	Objects []ScaleObject

	sizes  []int
	starts []int64 // starts[t] = key of tenant t's first object
}

// NewScale generates the population. Deterministic in cfg.Seed.
func NewScale(cfg ScaleConfig) (*Scale, error) {
	cfg = cfg.withDefaults()
	if cfg.Objects < 1 {
		return nil, fmt.Errorf("workload: scale needs at least 1 object, got %d", cfg.Objects)
	}
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("workload: scale needs at least 1 tenant, got %d", cfg.Tenants)
	}
	if cfg.Objects < cfg.Tenants*cfg.MinPerTenant {
		return nil, fmt.Errorf("workload: %d objects cannot floor %d tenants at %d each",
			cfg.Objects, cfg.Tenants, cfg.MinPerTenant)
	}
	zt, err := NewZipf(cfg.Tenants, cfg.TenantSkew)
	if err != nil {
		return nil, err
	}
	s := &Scale{
		Config:  cfg,
		Objects: make([]ScaleObject, cfg.Objects),
		sizes:   zt.SplitByRank(cfg.Objects, cfg.MinPerTenant),
		starts:  make([]int64, cfg.Tenants),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	key := int64(0)
	for t := 0; t < cfg.Tenants; t++ {
		s.starts[t] = key
		for i := 0; i < s.sizes[t]; i++ {
			s.Objects[key] = ScaleObject{
				Key:    key,
				Tenant: t,
				Region: int64(rng.Intn(cfg.Regions)),
				Cost:   float64(1 + rng.Intn(10)),
				Value:  20 + rng.Float64()*180,
				Load:   rng.Float64() * 100,
				sigmaV: 0.2 + rng.Float64()*0.8,
				sigmaL: 0.5 + rng.Float64()*1.5,
			}
			key++
		}
	}
	return s, nil
}

// TenantName is the SQL table name of tenant t.
func TenantName(t int) string { return fmt.Sprintf("tenant_%d", t) }

// TenantSize returns tenant t's object count.
func (s *Scale) TenantSize(t int) int { return s.sizes[t] }

// TenantStart returns the key of tenant t's first object; the tenant
// owns keys [TenantStart(t), TenantStart(t)+TenantSize(t)).
func (s *Scale) TenantStart(t int) int64 { return s.starts[t] }

// TenantObjects returns tenant t's objects as a subslice of Objects.
func (s *Scale) TenantObjects(t int) []ScaleObject {
	return s.Objects[s.starts[t] : s.starts[t]+int64(s.sizes[t])]
}

// ScaleSchema is the shared tenant-table schema: an exact region
// dimension plus two bounded measurements.
func ScaleSchema() *relation.Schema {
	return relation.NewSchema(
		relation.Column{Name: "region", Kind: relation.Exact},
		relation.Column{Name: "value", Kind: relation.Bounded},
		relation.Column{Name: "load", Kind: relation.Bounded},
	)
}

// QuerySQL renders a random single-answer query against tenant t — the
// shapes a client sends through POST /query (which rejects GROUP BY, so
// grouped shapes live in SubscriptionSQL). Deterministic in the rng
// stream.
func (s *Scale) QuerySQL(rng *rand.Rand, t int) string {
	name := TenantName(t)
	switch rng.Intn(5) {
	case 0:
		return fmt.Sprintf("SELECT SUM(value) WITHIN %d FROM %s", 50+rng.Intn(450), name)
	case 1:
		return fmt.Sprintf("SELECT AVG(load) WITHIN %d%% FROM %s", 2+rng.Intn(18), name)
	case 2:
		return fmt.Sprintf("SELECT MIN(value), MAX(value) FROM %s", name)
	case 3:
		return fmt.Sprintf("SELECT COUNT(value) WITHIN %d FROM %s WHERE load > %d",
			rng.Intn(4), name, 20+rng.Intn(60))
	default:
		return fmt.Sprintf("SELECT SUM(%s.value) WITHIN %d FROM %s WHERE region = %d AND load >= %d",
			name, 20+rng.Intn(180), name, rng.Intn(s.Config.Regions), rng.Intn(40))
	}
}

// SubscriptionSQL renders a random standing-query shape against tenant
// t, including GROUP BY over the tenant's region column.
func (s *Scale) SubscriptionSQL(rng *rand.Rand, t int) string {
	name := TenantName(t)
	switch rng.Intn(3) {
	case 0:
		return fmt.Sprintf("SELECT SUM(value) WITHIN %d FROM %s GROUP BY region", 100+rng.Intn(400), name)
	case 1:
		return fmt.Sprintf("SELECT AVG(load) WITHIN %d%% FROM %s GROUP BY region", 5+rng.Intn(15), name)
	default:
		return fmt.Sprintf("SELECT MAX(load) WITHIN %d FROM %s", 10+rng.Intn(40), name)
	}
}

// ScaleCorpus returns a deterministic sample of the scale workload's SQL
// shapes, for seeding parser fuzz corpora: one of
// each QuerySQL/SubscriptionSQL production over a few tenant names,
// from a fixed rng stream.
func ScaleCorpus() []string {
	s, err := NewScale(ScaleConfig{Objects: 64, Tenants: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	var out []string
	for i := 0; i < 64; i++ {
		t := i % s.Config.Tenants
		for _, q := range []string{s.QuerySQL(rng, t), s.SubscriptionSQL(rng, t)} {
			if !seen[q] {
				seen[q] = true
				out = append(out, q)
			}
		}
	}
	return out
}
