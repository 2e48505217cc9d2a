package server

// White-box unit tests for the service layer: wire round trips, error
// mapping, multi-statement batches, admission control, SSE streaming,
// metrics, and graceful drain. The heavier lockstep parity and stress
// suites live in parity_test.go and stress_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trapp/internal/boundfn"
	"trapp/internal/interval"
	"trapp/internal/refresh"
	"trapp/internal/relation"
	itrapp "trapp/internal/trapp"
)

// buildSystem wires nsrc sources × perSrc objects into one cache
// mounted as "vals" (bounded column "value", exact column "grp").
// Object key k has master value 100+k and bound width 10.
func buildSystem(t testing.TB, nsrc, perSrc int) *itrapp.System {
	t.Helper()
	sys := itrapp.NewSystem(refresh.Options{})
	schema := relation.NewSchema(
		relation.Column{Name: "grp", Kind: relation.Exact},
		relation.Column{Name: "value", Kind: relation.Bounded},
	)
	c, err := sys.AddCache("monitor", schema)
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < nsrc; si++ {
		src, err := sys.AddSource(fmt.Sprintf("s%d", si), nil)
		if err != nil {
			t.Fatal(err)
		}
		for oi := 0; oi < perSrc; oi++ {
			key := int64(si*100 + oi)
			if err := src.AddObject(key, []float64{100 + float64(key)}, float64(1+oi%4), boundfn.StaticWidth(10)); err != nil {
				t.Fatal(err)
			}
			if err := c.Subscribe(src, key, []float64{float64(si)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sys.Mount("vals", c); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

// floatPtr builds a wire-float literal pointer.
func floatPtr(v float64) *Float { f := Float(v); return &f }

// postQuery issues one /query request and decodes the response.
func postQuery(t testing.TB, url string, req QueryRequest) (int, QueryResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, qr
}

func TestQueryRoundTrip(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, qr := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) FROM vals"})
	if status != 200 || qr.Error != nil {
		t.Fatalf("status %d, err %+v", status, qr.Error)
	}
	if len(qr.Results) != 1 {
		t.Fatalf("got %d results", len(qr.Results))
	}
	res := qr.Results[0].Result()
	// Just after subscription the bounds are fresh: 8 objects of master
	// 100+key, bound width 10 each.
	var exact float64
	for _, k := range []int64{0, 1, 2, 3, 100, 101, 102, 103} {
		exact += 100 + float64(k)
	}
	if !res.Answer.Contains(exact) {
		t.Errorf("answer %v does not contain exact %g", res.Answer, exact)
	}
	if !res.Met {
		t.Error("unconstrained query not met")
	}
}

func TestMultiStatementBatch(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, qr := postQuery(t, ts.URL, QueryRequest{
		SQL: "SELECT MIN(value) FROM vals; SELECT MAX(value), AVG(value) WITHIN 50 FROM vals",
	})
	if status != 200 || qr.Error != nil {
		t.Fatalf("status %d, err %+v", status, qr.Error)
	}
	if len(qr.Results) != 3 {
		t.Fatalf("got %d results, want 3 (1 + 2 select items)", len(qr.Results))
	}
	for i, r := range qr.Results {
		if r.Error != nil {
			t.Errorf("result %d: unexpected error %+v", i, r.Error)
		}
	}
}

func TestErrorMapping(t *testing.T) {
	sys := buildSystem(t, 1, 2)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name   string
		req    QueryRequest
		status int
		code   string
	}{
		{"parse error", QueryRequest{SQL: "SELECT FROG(value) FROM vals"}, 400, CodeParse},
		{"unknown table", QueryRequest{SQL: "SELECT SUM(value) FROM nope"}, 400, CodeParse},
		{"empty", QueryRequest{SQL: "  ;  "}, 400, CodeInvalid},
		{"bad mode", QueryRequest{SQL: "SELECT SUM(value) FROM vals", Mode: "psychic"}, 400, CodeInvalid},
		{"negative budget", QueryRequest{SQL: "SELECT SUM(value) FROM vals", Budget: floatPtr(-1000)}, 400, CodeInvalid},
		{"bad solver", QueryRequest{SQL: "SELECT SUM(value) FROM vals", Solver: "oracle"}, 400, CodeInvalid},
		{"group by", QueryRequest{SQL: "SELECT SUM(value) FROM vals GROUP BY grp"}, 400, CodeUnsupported},
	}
	for _, tc := range cases {
		status, qr := postQuery(t, ts.URL, tc.req)
		if status != tc.status || qr.Error == nil || qr.Error.Code != tc.code {
			t.Errorf("%s: status %d error %+v, want %d %s", tc.name, status, qr.Error, tc.status, tc.code)
		}
	}

	// Parse errors in later statements carry positions offset into the
	// full request text.
	status, qr := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) FROM vals; SELECT ?"})
	if status != 400 || qr.Error == nil || qr.Error.Pos == nil {
		t.Fatalf("status %d error %+v", status, qr.Error)
	}
	if want := strings.Index("SELECT SUM(value) FROM vals; SELECT ?", "?"); *qr.Error.Pos != want {
		t.Errorf("pos %d, want %d", *qr.Error.Pos, want)
	}
}

func TestBudgetExhaustedOverTheWire(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	// Let bounds grow so a tight constraint needs refreshes.
	sys.Clock.Advance(10)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	budget := Float(1)
	status, qr := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) WITHIN 0.001 FROM vals", Budget: &budget})
	if status != 206 {
		t.Fatalf("status %d, want 206", status)
	}
	if len(qr.Results) != 1 || qr.Results[0].Error == nil || qr.Results[0].Error.Code != CodeBudgetExhausted {
		t.Fatalf("results %+v", qr.Results)
	}
	we := qr.Results[0].Error
	if we.Budget == nil || float64(*we.Budget) != 1 || we.Spent == nil || float64(*we.Spent) > 1 {
		t.Errorf("budget fields %+v", we)
	}
	if we.Achieved == nil || we.Achieved.Interval().IsEmpty() {
		t.Errorf("no achieved interval: %+v", we)
	}
}

func TestExpiredDeadlineOverTheWire(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	sys.Clock.Advance(10)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A negative relative deadline arrives already expired: the engine
	// returns its best-effort interval plus a typed precision_unmet.
	status, qr := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) WITHIN 0.001 FROM vals", DeadlineMillis: -1})
	if status != 206 && status != 504 {
		t.Fatalf("status %d", status)
	}
	if status == 206 {
		we := qr.Results[0].Error
		if we == nil || we.Code != CodePrecisionUnmet || we.Cause != CodeDeadline {
			t.Fatalf("per-query error %+v", we)
		}
	}
}

func TestFloatWireEncoding(t *testing.T) {
	for _, v := range []float64{0, 1.5, -3.25, 1e300, math.Inf(1), math.Inf(-1), 0.1} {
		buf, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatal(err)
		}
		var back Float
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if float64(back) != v {
			t.Errorf("%g round-tripped to %g via %s", v, float64(back), buf)
		}
	}
	// NaN round-trips to NaN.
	buf, _ := json.Marshal(Float(math.NaN()))
	var back Float
	if err := json.Unmarshal(buf, &back); err != nil || !math.IsNaN(float64(back)) {
		t.Errorf("NaN via %s: %v %g", buf, err, float64(back))
	}
	// Intervals round-trip bit-exactly including unbounded ones.
	iv := interval.New(math.Inf(-1), 0.30000000000000004)
	buf, _ = json.Marshal(ToWire(iv))
	var wi WireInterval
	if err := json.Unmarshal(buf, &wi); err != nil || !wi.Interval().Equal(iv) {
		t.Errorf("interval %v via %s → %v (%v)", iv, buf, wi.Interval(), err)
	}
}

func TestAdmissionControlInFlight(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	sys.Net.SetLatency(30 * time.Millisecond) // make refreshing queries slow
	sys.Clock.Advance(10)
	srv := New(sys, Config{MaxInFlight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	var mu sync.Mutex
	codes := map[int]int{}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) WITHIN 0.001 FROM vals", Mode: "precise"})
			mu.Lock()
			codes[status]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if codes[429] == 0 {
		t.Errorf("no over_capacity rejections: %v", codes)
	}
	m := srv.SnapshotMetrics()
	if m.InFlightPeak > 1 {
		t.Errorf("in-flight peak %d exceeded cap 1", m.InFlightPeak)
	}
	if m.Rejected == 0 {
		t.Error("rejected counter is zero")
	}
}

func TestPerClientBudgetLedger(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	sys.Clock.Advance(50)
	srv := New(sys, Config{ClientBudget: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(client string) (int, QueryResponse) {
		body, _ := json.Marshal(QueryRequest{SQL: "SELECT SUM(value) WITHIN 0.001 FROM vals", Mode: "precise"})
		req, _ := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
		req.Header.Set("X-Trapp-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, qr
	}

	// Drain client A's budget with precise queries; total spend across
	// requests must never exceed the ceiling.
	var total float64
	for i := 0; i < 5; i++ {
		status, qr := post("A")
		if status != 200 && status != 206 {
			t.Fatalf("status %d: %+v", status, qr.Error)
		}
		for _, r := range qr.Results {
			total += float64(r.RefreshCost)
		}
	}
	if total > 4+1e-9 {
		t.Errorf("client A spent %g > ceiling 4", total)
	}
	// A fresh client still has budget.
	_, qr := post("B")
	if qr.BudgetRemaining == nil {
		t.Fatal("no budget_remaining reported")
	}
}

func TestClientLedgerMapIsBounded(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	sys.Clock.Advance(50)
	srv := New(sys, Config{ClientBudget: 100, MaxClients: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	remaining := func(client string) float64 {
		body, _ := json.Marshal(QueryRequest{SQL: "SELECT SUM(value) WITHIN 0.001 FROM vals", Mode: "precise"})
		req, _ := http.NewRequest("POST", ts.URL+"/query", bytes.NewReader(body))
		req.Header.Set("X-Trapp-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		if qr.BudgetRemaining == nil {
			t.Fatal("no budget_remaining")
		}
		return float64(*qr.BudgetRemaining)
	}

	// Client A takes the one ledger slot and spends from it; B and C
	// arrive past the cap and land in the hashed overflow array without
	// growing the map. Pick B and C so they collide on one overflow
	// slot — the collision must be detected and each must still meter
	// against its own budget, never observing the other's spend. The
	// clock advances between requests so each precise query finds
	// regrown bounds to pay for.
	keyB := "ovf-0"
	keyC := ""
	for i := 1; keyC == ""; i++ {
		k := fmt.Sprintf("ovf-%d", i)
		if fnv32a(k)%overflowShards == fnv32a(keyB)%overflowShards {
			keyC = k
		}
	}
	remaining("A")
	sys.Clock.Advance(50)
	afterB := remaining(keyB)
	sys.Clock.Advance(50)
	afterC := remaining(keyC)
	if afterB >= 100 {
		t.Errorf("client %s spent nothing (remaining %g) — precise query should cost", keyB, afterB)
	}
	// B and C run the same query against the same regrown bounds, so
	// with isolated budgets they end with equal remainders; a pooled
	// ledger would charge C on top of B's spend, leaving C strictly less.
	if afterC < afterB-1e-9 {
		t.Errorf("colliding overflow client %s saw %s's spend (remaining %g after B left %g): budgets pooled",
			keyC, keyB, afterC, afterB)
	}
	if n := srv.clientCount.Load(); n != 1 {
		t.Errorf("ledger map grew past MaxClients: %d entries", n)
	}
}

// TestOverflowLedgerCollisionIsolation pins the collision semantics at
// the ledger layer: past MaxClients, two keys hashing to the same
// overflow slot must get distinct ledgers (the second spills into the
// bounded LRU), one client's exhaustion must not touch the other's
// remaining budget, and re-requesting a key must find the same ledger.
func TestOverflowLedgerCollisionIsolation(t *testing.T) {
	s := &Server{cfg: Config{ClientBudget: 10, MaxClients: 1}}
	s.ledgerFor("pinned") // take the one real slot

	keyB := "ovf-0"
	keyC := ""
	for i := 1; keyC == ""; i++ {
		k := fmt.Sprintf("ovf-%d", i)
		if fnv32a(k)%overflowShards == fnv32a(keyB)%overflowShards {
			keyC = k
		}
	}
	lb, lc := s.ledgerFor(keyB), s.ledgerFor(keyC)
	if lb == lc {
		t.Fatalf("colliding overflow keys %q and %q share a ledger", keyB, keyC)
	}
	// Drain B entirely; C's ceiling must be untouched.
	if eff, _ := lb.reserve(10, nil); eff != 10 {
		t.Fatalf("B reserved %g, want the full ceiling 10", eff)
	}
	if rem := lc.remaining(10); rem != 10 {
		t.Fatalf("C's budget drained to %g by B's spend", rem)
	}
	// Ledger identity is stable across lookups.
	if s.ledgerFor(keyB) != lb || s.ledgerFor(keyC) != lc {
		t.Fatal("repeat lookups returned different ledgers")
	}
}

// TestOverflowSpillIsBounded proves an adversary minting colliding keys
// cannot grow the spill past its cap, and that eviction forgets spend
// without breaking in-flight metering.
func TestOverflowSpillIsBounded(t *testing.T) {
	var lru ledgerLRU
	first := lru.get("k-0")
	first.reserve(10, nil)
	for i := 1; i < overflowSpillCap+64; i++ {
		lru.get(fmt.Sprintf("k-%d", i))
	}
	if n := lru.len(); n != overflowSpillCap {
		t.Fatalf("spill holds %d ledgers, want cap %d", n, overflowSpillCap)
	}
	// k-0 was the LRU victim: a fresh ledger with forgotten spend, while
	// the evicted pointer stays safe to meter against.
	first.refund(10, 0)
	if again := lru.get("k-0"); again == first {
		t.Fatal("evicted key returned its old ledger")
	} else if rem := again.remaining(10); rem != 10 {
		t.Fatalf("re-admitted key inherited spend: remaining %g", rem)
	}
}

// BenchmarkOverflowLedger hammers ledgerFor+reserve/refund with distinct
// client keys past the MaxClients cap — the admission path every request
// from an unseen client takes on a saturated server. Before the overflow
// array, all of them serialized on a single ledger mutex.
func BenchmarkOverflowLedger(b *testing.B) {
	s := &Server{cfg: Config{ClientBudget: 1e18, MaxClients: 1}}
	s.ledgerFor("pinned") // take the one real slot
	b.SetParallelism(32)
	var ctr atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		key := fmt.Sprintf("client-%d", ctr.Add(1))
		for pb.Next() {
			led := s.ledgerFor(key)
			_, reserved := led.reserve(1e18, nil)
			led.refund(reserved, 1)
		}
	})
}

func TestSubscribeSSE(t *testing.T) {
	sys := buildSystem(t, 1, 3)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/subscribe?sql=" + strings.ReplaceAll("SELECT SUM(value) WITHIN 100 FROM vals", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	r := NewSSEReader(resp.Body)
	ev, err := r.Next()
	if err != nil || ev.Name != "subscribed" {
		t.Fatalf("first event %q (%v)", ev.Name, err)
	}
	// The engine primes a first update; then a pushed value moves the
	// answer and a second update follows.
	ev, err = r.Next()
	if err != nil || ev.Name != "update" {
		t.Fatalf("second event %q (%v)", ev.Name, err)
	}
	var u0 WireUpdate
	if err := json.Unmarshal(ev.Data, &u0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Source("s0").SetValue(1, []float64{500}); err != nil {
		t.Fatal(err)
	}
	sys.Settle()
	ev, err = r.Next()
	if err != nil || ev.Name != "update" {
		t.Fatalf("post-push event %q (%v)", ev.Name, err)
	}
	var u1 WireUpdate
	if err := json.Unmarshal(ev.Data, &u1); err != nil {
		t.Fatal(err)
	}
	if u1.Seq <= u0.Seq {
		t.Errorf("seq did not advance: %d then %d", u0.Seq, u1.Seq)
	}
	if u1.Answer.Interval().Equal(u0.Answer.Interval()) {
		t.Errorf("answer did not move: %v", u1.Answer)
	}
}

func TestSubscribeGroupBy(t *testing.T) {
	sys := buildSystem(t, 2, 3)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/subscribe?sql=" + strings.ReplaceAll("SELECT AVG(value) FROM vals GROUP BY grp", " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	r := NewSSEReader(resp.Body)
	if ev, err := r.Next(); err != nil || ev.Name != "subscribed" {
		t.Fatalf("first event %q (%v)", ev.Name, err)
	}
	ev, err := r.Next()
	if err != nil || ev.Name != "update" {
		t.Fatalf("second event %q (%v)", ev.Name, err)
	}
	var u WireUpdate
	if err := json.Unmarshal(ev.Data, &u); err != nil {
		t.Fatal(err)
	}
	if len(u.Groups) != 2 {
		t.Fatalf("got %d groups, want 2 (one per source id)", len(u.Groups))
	}
}

func TestGracefulDrain(t *testing.T) {
	sys := buildSystem(t, 1, 3)
	srv := New(sys, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Open a subscription, then drain: the stream must end promptly with
	// a bye event instead of hanging.
	resp, err := http.Get(ts.URL + "/subscribe?sql=SELECT%20SUM(value)%20FROM%20vals")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := NewSSEReader(resp.Body)
	if ev, err := r.Next(); err != nil || ev.Name != "subscribed" {
		t.Fatalf("first event %q (%v)", ev.Name, err)
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- srv.Shutdown(ctx)
	}()

	sawBye := false
	for {
		ev, err := r.Next()
		if err != nil {
			if err != io.EOF {
				t.Logf("stream ended: %v", err)
			}
			break
		}
		if ev.Name == "bye" {
			sawBye = true
		}
	}
	if !sawBye {
		t.Error("no bye event before stream end")
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Post-drain requests are rejected with 503 draining.
	status, qr := postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) FROM vals"})
	if status != 503 || qr.Error == nil || qr.Error.Code != CodeDraining {
		t.Errorf("post-drain status %d error %+v", status, qr.Error)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 503 {
		t.Errorf("healthz status %d while draining", hr.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	sys := buildSystem(t, 2, 4)
	sys.Clock.Advance(5)
	srv := New(sys, Config{Info: map[string]any{"links": 8}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postQuery(t, ts.URL, QueryRequest{SQL: "SELECT SUM(value) WITHIN 0.001 FROM vals", Mode: "precise"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Statements == 0 {
		t.Error("no statements counted")
	}
	if m.Network.QueryRefreshCost == 0 {
		t.Error("no refresh cost after a precise query")
	}
	if len(m.Network.PerSource) == 0 {
		t.Error("no per-source traffic breakdown")
	}
	for id, ss := range m.Network.PerSource {
		if ss.Messages["query-refresh"]+ss.Messages["registration"] == 0 {
			t.Errorf("source %s has no labeled traffic: %+v", id, ss)
		}
	}
	if m.Workload["links"] == nil {
		t.Error("workload info not echoed")
	}
}

func TestMultiStatementBudgetCoversTheRequest(t *testing.T) {
	// A request's cost budget — the client ceiling or the request's own —
	// covers all of its statements: two precise statements over disjoint
	// groups pay at most the budget between them, traced or not.
	const sql = "SELECT SUM(value) WITHIN 0.001 FROM vals WHERE grp = 0; SELECT SUM(value) WITHIN 0.001 FROM vals WHERE grp = 1"
	for _, c := range []struct {
		name   string
		cfg    Config
		budget *Float
	}{
		{"client ceiling", Config{ClientBudget: 4}, nil},
		{"request budget", Config{}, floatPtr(4)},
	} {
		for _, traced := range []bool{false, true} {
			sys := buildSystem(t, 2, 4)
			sys.Clock.Advance(50)
			ts := httptest.NewServer(New(sys, c.cfg).Handler())
			before := sys.Stats().QueryRefreshCost
			status, qr := postQuery(t, ts.URL, QueryRequest{SQL: sql, Mode: "precise", Budget: c.budget, Trace: traced})
			ts.Close()
			if qr.Error != nil || len(qr.Results) != 2 {
				t.Fatalf("%s, traced %t: status %d, %+v", c.name, traced, status, qr)
			}
			var attributed float64
			for _, r := range qr.Results {
				attributed += float64(r.RefreshCost)
			}
			if paid := sys.Stats().QueryRefreshCost - before; paid > 4+1e-9 || attributed > 4+1e-9 {
				t.Errorf("%s, traced %t: the network paid %g (results attribute %g) on a budget of 4", c.name, traced, paid, attributed)
			}
		}
	}
}
