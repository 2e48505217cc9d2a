// Package source implements the data-source side of the TRAPP architecture
// (paper section 3, Figure 3): each source owns the master copy of its data
// objects and runs a Refresh Monitor that tracks the bound it has promised
// to every subscribed cache. When an update moves a master value outside a
// promised bound, the source immediately pushes a value-initiated refresh;
// when a cache's query processor needs an exact value, it pulls a
// query-initiated refresh.
//
// Bounds are transmitted in the compressed two-number encoding of
// Appendix A — the refreshed value V(Tr) and the width parameter W — with
// the shape function agreed out of band (√T by default). Each object's
// width parameter is governed by a boundfn.WidthPolicy; the adaptive policy
// widens bounds after value-initiated refreshes and narrows them after
// query-initiated ones.
//
// A registration owns the promise it tracks and is overwritten in place by
// every refresh of its object. A refresh message handed out of the source
// (a pushed Refresh, a columnar Batch reply) owns its own rows and never
// shares storage with a registration: it is delivered after the source
// lock is released, while the object's next refresh may already be
// rewriting the registration.
package source

import (
	"context"
	"fmt"
	"math"
	"sync"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
	"trapp/internal/obs"
)

// RefreshKind distinguishes why a refresh was sent.
type RefreshKind int8

const (
	// ValueInitiated refreshes fire when a master value escapes a bound.
	ValueInitiated RefreshKind = iota
	// QueryInitiated refreshes are pulled by a cache's query processor.
	QueryInitiated
)

// String names the refresh kind.
func (k RefreshKind) String() string {
	if k == ValueInitiated {
		return "value-initiated"
	}
	return "query-initiated"
}

// Refresh is the message a source sends to a cache: the exact values of
// the object's bounded attributes along with new bound functions.
type Refresh struct {
	// SourceID names the sending source.
	SourceID string
	// Key identifies the data object.
	Key int64
	// Values are the exact attribute values at refresh time, in the
	// object's attribute order.
	Values []float64
	// Bounds are the new time-varying bound functions, one per attribute.
	Bounds []boundfn.Bound
	// Kind reports why the refresh was sent.
	Kind RefreshKind
	// Seq orders refreshes of one object: sources stamp each refresh
	// with a per-object counter under their lock, so a cache receiving
	// refreshes on different goroutines can drop one that was generated
	// before an already-applied newer one. Zero means unordered (tests
	// building Refresh values by hand).
	Seq int64
}

// Subscriber receives pushed refreshes (value-initiated) from a source.
type Subscriber interface {
	// ApplyRefresh installs new bounds for the object. Implementations
	// must not call back into the source.
	ApplyRefresh(r Refresh)
}

// Batch is the reply to one batched query-refresh request, as a struct of
// arrays: row i refreshes object Keys[i] with sequence number Seqs[i], and
// its exact attribute values and fresh bound functions are row i of
// Values and Bounds (see Refresh). The first Requested rows answer the
// request, in request order, and are query-initiated; any rows after them
// are piggybacked extras (value-initiated). The arrays belong to the
// message: nothing in them is shared with the source.
type Batch struct {
	SourceID  string
	Requested int
	Keys      []int64
	Seqs      []int64
	Values    []float64
	Bounds    []boundfn.Bound
	ends      []int32 // ends[i]: where row i ends, and row i+1 starts, in Values and Bounds
}

// Kind reports why row i was sent.
func (b *Batch) Kind(i int) RefreshKind {
	if i < b.Requested {
		return QueryInitiated
	}
	return ValueInitiated
}

// Refresh returns row i as a single refresh message; its Values and
// Bounds are windows onto the batch's arrays.
func (b *Batch) Refresh(i int) Refresh {
	lo, hi := int32(0), b.ends[i]
	if i > 0 {
		lo = b.ends[i-1]
	}
	return Refresh{SourceID: b.SourceID, Key: b.Keys[i], Values: b.Values[lo:hi:hi], Bounds: b.Bounds[lo:hi:hi], Kind: b.Kind(i), Seq: b.Seqs[i]}
}

// Append adds a row holding copies of values and bounds (one entry per
// attribute each).
func (b *Batch) Append(key, seq int64, values []float64, bounds []boundfn.Bound) {
	b.Keys = append(b.Keys, key)
	b.Seqs = append(b.Seqs, seq)
	b.Values = append(b.Values, values...)
	b.Bounds = append(b.Bounds, bounds...)
	b.ends = append(b.ends, int32(len(b.Values)))
}

// object is one master data object.
type object struct {
	values []float64 // master attribute values
	cost   float64   // query-initiated refresh cost C_i
	policy boundfn.WidthPolicy
	seq    int64 // refresh generation counter; see Refresh.Seq
	// regs holds one registration per subscribed cache. The pointers are
	// stable for as long as the subscription lasts.
	regs []*registration
}

// reg returns the subscriber's registration for the object, or nil.
func (o *object) reg(sub Subscriber) *registration {
	for _, r := range o.regs {
		if r.sub == sub {
			return r
		}
	}
	return nil
}

// registration tracks the bound promised to one cache for one object. It
// owns bounds: every refresh overwrites the slice in place, and no message
// leaving the source refers to it.
type registration struct {
	sub    Subscriber
	bounds []boundfn.Bound
}

// Source owns master values and runs the refresh monitor. All methods are
// safe for concurrent use.
type Source struct {
	id    string
	clock *netsim.Clock
	net   *netsim.Network
	shape boundfn.Shape

	mu        sync.Mutex
	objects   map[int64]*object
	piggyback float64 // see EnablePiggyback

	// Delayed insert/delete propagation (section 8.3); see events.go.
	watchers []Watcher
	pending  []TableEvent
	slack    int
}

// New creates a source. clock and net must be shared with the caches;
// shape selects the transmitted bound shape (nil means √T).
func New(id string, clock *netsim.Clock, net *netsim.Network, shape boundfn.Shape) *Source {
	return &Source{
		id:      id,
		clock:   clock,
		net:     net,
		shape:   shape,
		objects: make(map[int64]*object),
	}
}

// ID returns the source identifier.
func (s *Source) ID() string { return s.id }

// AddObject registers a master object with its initial attribute values,
// query-refresh cost, and width policy (nil means a static width of 1).
func (s *Source) AddObject(key int64, values []float64, cost float64, policy boundfn.WidthPolicy) error {
	if !(cost >= 0) || math.IsInf(cost, 1) {
		return fmt.Errorf("source %s: cost %g for object %d is not finite and nonnegative", s.id, cost, key)
	}
	if policy == nil {
		policy = boundfn.StaticWidth(1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[key]; dup {
		return fmt.Errorf("source %s: duplicate object %d", s.id, key)
	}
	vals := make([]float64, len(values))
	copy(vals, values)
	s.objects[key] = &object{values: vals, cost: cost, policy: policy}
	return nil
}

// Cost returns the query-refresh cost of an object.
func (s *Source) Cost(key int64) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[key]
	if !ok {
		return 0, false
	}
	return o.cost, true
}

// Values returns a copy of the object's current master values.
func (s *Source) Values(key int64) ([]float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[key]
	if !ok {
		return nil, false
	}
	out := make([]float64, len(o.values))
	copy(out, o.values)
	return out, true
}

// Subscribe registers a cache for an object and returns the initial
// refresh carrying the current values and fresh bounds. The source
// remembers the promised bounds for its refresh monitor.
func (s *Source) Subscribe(key int64, sub Subscriber) (Refresh, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[key]
	if !ok {
		return Refresh{}, fmt.Errorf("source %s: no object %d", s.id, key)
	}
	s.net.SendFrom(s.id, netsim.Registration, 1, 0)
	// Reuse a prior registration for the same subscriber instead of
	// accumulating duplicates: a cache re-handshaking after recovery (or
	// retrying a racy subscribe) must end up with exactly one live
	// registration, or every future push would be delivered N times.
	reg := o.reg(sub)
	if reg == nil {
		reg = &registration{sub: sub}
		o.regs = append(o.regs, reg)
	}
	// The initial push is not charged as a query refresh.
	return s.refreshLocked(key, o, reg, ValueInitiated), nil
}

// promiseLocked writes a fresh promise for the object — its current values
// at the policy's next width, from now — into the registration, in place,
// and advances the object's refresh sequence.
func (s *Source) promiseLocked(o *object, reg *registration) {
	now := s.clock.Now()
	w := o.policy.NextWidth()
	if len(reg.bounds) != len(o.values) {
		reg.bounds = make([]boundfn.Bound, len(o.values))
	}
	for i, v := range o.values {
		reg.bounds[i] = boundfn.Bound{Value: v, Width: w, RefreshedAt: now, Shape: s.shape}
	}
	o.seq++
}

// refreshLocked promises fresh bounds to the registration and returns the
// refresh message announcing them. The message holds copies: the
// registration's own slice is rewritten by the object's next refresh,
// possibly while this message is still being delivered.
func (s *Source) refreshLocked(key int64, o *object, reg *registration, kind RefreshKind) Refresh {
	s.promiseLocked(o, reg)
	return Refresh{
		SourceID: s.id,
		Key:      key,
		Values:   append([]float64(nil), o.values...),
		Bounds:   append([]boundfn.Bound(nil), reg.bounds...),
		Kind:     kind,
		Seq:      o.seq,
	}
}

// push is one refresh message waiting to be delivered to its subscriber
// once the source lock is released.
type push struct {
	sub Subscriber
	r   Refresh
}

// SetValue updates one master object's attribute values (an "escrow style"
// update arriving at the source) and runs the refresh monitor: any cache
// whose promised bound no longer contains the new values receives an
// immediate value-initiated refresh, and the object's width policy is
// notified so the next bound is wider.
func (s *Source) SetValue(key int64, values []float64) error {
	s.mu.Lock()
	o, ok := s.objects[key]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("source %s: no object %d", s.id, key)
	}
	copy(o.values, values)
	now := s.clock.Now()
	var buf [2]push // the usual escape has one subscriber: no list to allocate
	pushes := buf[:0]
	for _, reg := range o.regs {
		if regContains(reg, now, o.values) {
			continue
		}
		// An escape at the tick the bound was promised (dt = 0, where every
		// shape yields a zero-width bound) says nothing about the width
		// parameter — any movement at all escapes a point. Push the refresh
		// but only feed the "too narrow" signal to the policy when time has
		// actually passed; otherwise rapid same-tick updates would double
		// the width without bound.
		if len(reg.bounds) == 0 || reg.bounds[0].RefreshedAt < now {
			o.policy.ObserveValueRefresh()
		}
		r := s.refreshLocked(key, o, reg, ValueInitiated)
		s.net.SendFrom(s.id, netsim.ValueRefresh, 1, o.cost)
		pushes = append(pushes, push{reg.sub, r})
		// The message is going out anyway: ride along refreshes for this
		// cache's other near-edge objects (section 8.3).
		if s.piggyback > 0 {
			var extras Batch
			s.piggybackLocked(&extras, reg.sub, func(k int64) bool { return k == key })
			for i := range extras.Keys {
				pushes = append(pushes, push{reg.sub, extras.Refresh(i)})
			}
		}
	}
	s.mu.Unlock()
	// Deliver outside the lock so subscribers may inspect the source.
	for _, p := range pushes {
		p.sub.ApplyRefresh(p.r)
	}
	return nil
}

// regContains reports whether every promised bound still contains the
// corresponding master value at time now.
func regContains(reg *registration, now int64, values []float64) bool {
	if len(reg.bounds) != len(values) {
		return false
	}
	for i, b := range reg.bounds {
		if !b.Contains(now, values[i]) {
			return false
		}
	}
	return true
}

// QueryRefreshBatchCtx serves query-initiated refreshes for a whole set
// of objects in one locked pass over the source — the batched request a
// cache's refresh fan-out sends once per source instead of one round trip
// per object — and answers with one columnar reply (see Batch): a handful
// of allocations per batch, none per object. Every requested object is
// charged its cost and gets fresh bounds; if piggybacking is enabled,
// near-edge sibling objects outside the batch ride along for free. The
// caller applies the reply; this method does not call back into the
// subscriber.
//
// The request first validates the batch, then waits out the network's
// simulated wire time with no lock held, and only then commits — charges
// the cost, narrows the width policies, and installs the fresh promised
// bounds — atomically under the source lock. A context canceled (or a
// deadline expired) during the wait aborts the request before anything
// is committed: no charge, no policy movement, no new promise, so the
// refresh monitor's soundness invariant (the source pushes whenever a
// value escapes its *promised* bound) is unaffected by abandoned
// requests.
func (s *Source) QueryRefreshBatchCtx(ctx context.Context, keys []int64, sub Subscriber) (Batch, error) {
	if len(keys) == 0 {
		return Batch{}, nil
	}
	// Phase 1: validate, so a bad batch fails before paying wire time —
	// skipped on the hot path (zero latency), where there is no wire
	// time to waste and the commit phase's own resolution rejects bad
	// batches before anything is charged.
	if s.net.Latency() > 0 {
		if err := s.validateBatch(keys, sub); err != nil {
			return Batch{}, err
		}
	}
	// Phase 2: simulated wire time, interruptible, no lock held. A traced
	// request separates the time a batch sat on the wire from the time
	// committing it (the span in ctx is the per-source batch span).
	sp := obs.SpanFromContext(ctx)
	wireSp := sp.StartSpan("wire_wait")
	if err := s.net.Wait(ctx); err != nil {
		wireSp.End()
		return Batch{}, err
	}
	wireSp.End()
	// Phase 3: re-resolve and commit atomically. Objects that vanished
	// during the wait fail the batch exactly as they would have failed
	// validation; nothing is charged on that path either.
	commitSp := sp.StartSpan("commit")
	s.mu.Lock()
	type resolved struct {
		o   *object
		reg *registration
	}
	res := make([]resolved, len(keys))
	attrs := 0
	for i, key := range keys {
		o, reg, err := s.resolveLocked(key, sub)
		if err != nil {
			s.mu.Unlock()
			commitSp.End()
			return Batch{}, err
		}
		res[i] = resolved{o, reg}
		attrs += len(o.values)
	}
	b := Batch{
		SourceID:  s.id,
		Requested: len(keys),
		Keys:      make([]int64, 0, len(keys)),
		Seqs:      make([]int64, 0, len(keys)),
		Values:    make([]float64, 0, attrs),
		Bounds:    make([]boundfn.Bound, 0, attrs),
		ends:      make([]int32, 0, len(keys)),
	}
	var batchCost float64
	for i, key := range keys {
		o, reg := res[i].o, res[i].reg
		o.policy.ObserveQueryRefresh()
		batchCost += o.cost
		s.promiseLocked(o, reg)
		b.Append(key, o.seq, o.values, reg.bounds)
	}
	s.net.SendFrom(s.id, netsim.QueryRefresh, int64(len(keys)), batchCost)
	if s.piggyback > 0 {
		requested := make(map[int64]bool, len(keys))
		for _, key := range keys {
			requested[key] = true
		}
		s.piggybackLocked(&b, sub, func(key int64) bool { return requested[key] })
	}
	s.mu.Unlock()
	if commitSp != nil {
		commitSp.SetDetail("keys=%d cost=%g", len(keys), batchCost)
		commitSp.End()
	}
	return b, nil
}

// WidthTelemetry summarizes the adaptive-width controller state across
// the source's objects: how many objects run an adaptive policy, the
// spread of their current width parameter W, and the escape
// (value-initiated) vs shrink (query-initiated) refresh counts their
// controllers have observed. Objects on static policies count toward
// Objects only.
type WidthTelemetry struct {
	Objects        int     `json:"objects"`
	Adaptive       int     `json:"adaptive"`
	WMin           float64 `json:"w_min"`
	WMax           float64 `json:"w_max"`
	WMean          float64 `json:"w_mean"`
	ValueRefreshes int64   `json:"value_refreshes"`
	QueryRefreshes int64   `json:"query_refreshes"`
}

// WidthTelemetry aggregates the controller state under the source lock;
// it is a metrics-scrape helper, not a hot-path call.
func (s *Source) WidthTelemetry() WidthTelemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := WidthTelemetry{Objects: len(s.objects)}
	var sum float64
	for _, o := range s.objects {
		aw, ok := o.policy.(*boundfn.AdaptiveWidth)
		if !ok {
			continue
		}
		if t.Adaptive == 0 || aw.W < t.WMin {
			t.WMin = aw.W
		}
		if t.Adaptive == 0 || aw.W > t.WMax {
			t.WMax = aw.W
		}
		t.Adaptive++
		sum += aw.W
		v, q := aw.Counts()
		t.ValueRefreshes += v
		t.QueryRefreshes += q
	}
	if t.Adaptive > 0 {
		t.WMean = sum / float64(t.Adaptive)
	}
	return t
}

// validateBatch checks every key exists and the subscriber is
// registered for it, without committing anything.
func (s *Source) validateBatch(keys []int64, sub Subscriber) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range keys {
		if _, _, err := s.resolveLocked(key, sub); err != nil {
			return err
		}
	}
	return nil
}

// resolveLocked finds the object and the subscriber's registration for
// one key. Caller holds s.mu.
func (s *Source) resolveLocked(key int64, sub Subscriber) (*object, *registration, error) {
	o, ok := s.objects[key]
	if !ok {
		return nil, nil, fmt.Errorf("source %s: no object %d", s.id, key)
	}
	if reg := o.reg(sub); reg != nil {
		return o, reg, nil
	}
	return nil, nil, fmt.Errorf("source %s: cache not subscribed to object %d", s.id, key)
}

// ObserveDemand forwards shared-refresh demand to the object's width
// policy: one paid query-initiated refresh of key just satisfied
// subscribers standing queries at once (see boundfn.DemandObserver).
// Policies that do not implement DemandObserver ignore the signal.
func (s *Source) ObserveDemand(key int64, subscribers int) {
	if subscribers < 2 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[key]
	if !ok {
		return
	}
	if d, ok := o.policy.(boundfn.DemandObserver); ok {
		d.ObserveDemand(subscribers)
	}
}

// CheckBounds runs the refresh monitor sweep at the current time without a
// value change: as time advances, √T bounds only widen, so this cannot
// fire for values already inside their bounds; it exists so simulations
// that mutate values in bulk (e.g. loading a trace) can reconcile, and it
// returns the number of refreshes pushed.
func (s *Source) CheckBounds() int {
	s.mu.Lock()
	now := s.clock.Now()
	var pushes []push
	for key, o := range s.objects {
		for _, reg := range o.regs {
			if regContains(reg, now, o.values) {
				continue
			}
			o.policy.ObserveValueRefresh()
			r := s.refreshLocked(key, o, reg, ValueInitiated)
			s.net.SendFrom(s.id, netsim.ValueRefresh, 1, o.cost)
			pushes = append(pushes, push{reg.sub, r})
		}
	}
	s.mu.Unlock()
	for _, p := range pushes {
		p.sub.ApplyRefresh(p.r)
	}
	return len(pushes)
}
