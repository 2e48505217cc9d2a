package partition

// Codec round-trips: every encoded partition frame must decode to the
// identical value (raw IEEE-754 bits make float fields bit-exact), and
// error responses must reconstruct the context sentinels the
// coordinator's degradation taxonomy branches on.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trapp/internal/aggregate"
	"trapp/internal/codec"
	"trapp/internal/interval"
	"trapp/internal/predicate"
	"trapp/internal/relation"
)

func randSelection(rng *rand.Rand) aggregate.Selection {
	if rng.Intn(3) == 0 {
		return aggregate.Selection{}
	}
	return aggregate.Selection{Valid: true, Val: rng.NormFloat64() * 100, Key: rng.Int63n(1e6)}
}

func randState(rng *rand.Rand) aggregate.State {
	s := aggregate.State{
		Fn:       aggregate.Func(rng.Intn(5)),
		NoPred:   rng.Intn(2) == 0,
		TableLen: rng.Intn(1000),
		MinLo:    randSelection(rng), MinHiPlus: randSelection(rng),
		MaxHi: randSelection(rng), MaxLoPlus: randSelection(rng),
		SumPresent:     rng.Uint64(),
		Plus:           rng.Intn(500),
		Maybe:          rng.Intn(500),
		AvgSeedPresent: rng.Uint64(),
		AvgK:           rng.Intn(100),
		AvgAny:         rng.Intn(2) == 0,
	}
	for i := range s.SumLo {
		s.SumLo[i] = rng.NormFloat64() * 10
		s.SumHi[i] = s.SumLo[i] + rng.Float64()
		s.AvgSeedLo[i] = rng.NormFloat64()
		s.AvgSeedHi[i] = s.AvgSeedLo[i] + rng.Float64()
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		lo := rng.NormFloat64() * 50
		s.AvgMaybes = append(s.AvgMaybes, interval.Interval{Lo: lo, Hi: lo + rng.Float64()*3})
	}
	return s
}

func TestWireStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		want := randState(rng)
		frame := AppendStateResp(nil, uint32(i), &want)
		id, got, remoteErr, err := DecodeStateResp(frame[4:])
		if err != nil || remoteErr != nil {
			t.Fatalf("decode: %v / %v", err, remoteErr)
		}
		if id != uint32(i) {
			t.Fatalf("id %d != %d", id, i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("state round trip diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

func TestWireInputsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var want []aggregate.Input
	for i := 0; i < 64; i++ {
		want = append(want, aggregate.Input{
			Key:   rng.Int63n(1e6),
			Bound: interval.Interval{Lo: rng.NormFloat64(), Hi: rng.NormFloat64() + 5},
			Cost:  float64(1 + rng.Intn(10)),
			Class: predicate.Class(1 + rng.Intn(2)),
		})
	}
	frame := AppendInputsResp(nil, 7, want, 321)
	id, got, remoteErr, err := DecodeInputsResp(frame[4:])
	if err != nil || remoteErr != nil || id != 7 || got.n != 321 {
		t.Fatalf("decode: id=%d len=%d %v / %v", id, got.n, err, remoteErr)
	}
	if !reflect.DeepEqual(got.inputs, want) {
		t.Fatalf("inputs round trip diverged")
	}
}

// TestWireInputsRejectNonFiniteCost: a peer's NaN or infinite cost would
// reach the coordinator's knapsack as a profit and panic the query.
func TestWireInputsRejectNonFiniteCost(t *testing.T) {
	for _, cost := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		frame := AppendInputsResp(nil, 7, []aggregate.Input{
			{Key: 9, Bound: interval.Interval{Lo: -1, Hi: 5}, Cost: cost, Class: predicate.Maybe},
		}, 1)
		if _, _, _, err := DecodeInputsResp(frame[4:]); !positioned(err, len(frame)-4) {
			t.Errorf("cost %g: error %v, want a positioned rejection", cost, err)
		}
	}
}

func TestWireRefreshRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	want := RefreshOutcome{Cut: true, Installed: []int64{3, 1, 4, 15}, State: randState(rng)}
	frame := AppendRefreshResp(nil, 9, &want, nil)
	id, got, remoteErr, err := DecodeRefreshResp(frame[4:])
	if err != nil || remoteErr != nil || id != 9 {
		t.Fatalf("decode: %v / %v", err, remoteErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refresh round trip diverged:\n got %+v\nwant %+v", got, want)
	}

	// A failed refresh carries its outcome beside the error: what the
	// partition installed before failing was paid for.
	want.Cut = false
	frame = AppendRefreshResp(nil, 10, &want, errors.New("source s1: no object 7"))
	id, got, remoteErr, err = DecodeRefreshResp(frame[4:])
	if err != nil || id != 10 || remoteErr == nil || remoteErr.Error() != "source s1: no object 7" {
		t.Fatalf("decode error outcome: id=%d %v / %v", id, err, remoteErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("refresh error outcome diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestWireHelloRoundTrip(t *testing.T) {
	want := Hello{ID: "p1", Tables: []TableSchema{{
		Name: "links",
		Columns: []relation.Column{
			{Name: "latency", Kind: relation.Bounded},
			{Name: "from", Kind: relation.Exact},
		},
	}}}
	frame := AppendHelloResp(nil, 3, &want)
	id, got, remoteErr, err := DecodeHelloResp(frame[4:])
	if err != nil || remoteErr != nil || id != 3 {
		t.Fatalf("decode: %v / %v", err, remoteErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("hello round trip diverged:\n got %+v\nwant %+v", got, want)
	}
}

func TestWireRequestRoundTrips(t *testing.T) {
	id, dl, shape, err := decodeStateReq(AppendStateReq(nil, 5, 1234, "SELECT ...")[4:])
	if err != nil || id != 5 || dl != 1234 || shape != "SELECT ..." {
		t.Fatalf("state req: %d %d %q %v", id, dl, shape, err)
	}
	id, dl, shape, keys, err := decodeRefreshReq(AppendRefreshReq(nil, 6, 99, "Q", []int64{8, 2, 5})[4:])
	if err != nil || id != 6 || dl != 99 || shape != "Q" || !reflect.DeepEqual(keys, []int64{8, 2, 5}) {
		t.Fatalf("refresh req: %d %d %q %v %v", id, dl, shape, keys, err)
	}
	id, shape, within, err := decodeSubscribeReq(AppendSubscribeReq(nil, 8, "S", math.Inf(1))[4:])
	if err != nil || id != 8 || shape != "S" || !math.IsInf(within, 1) {
		t.Fatalf("subscribe req: %d %q %g %v", id, shape, within, err)
	}
}

func TestWireErrorReconstruction(t *testing.T) {
	cases := []struct {
		in   error
		want error
	}{
		{context.DeadlineExceeded, context.DeadlineExceeded},
		{context.Canceled, context.Canceled},
		{fmt.Errorf("refresh failed: %w", context.DeadlineExceeded), context.DeadlineExceeded},
		{errors.New("partition exploded"), nil},
	}
	for _, tc := range cases {
		frame := AppendErrResp(nil, frameStateResp, 1, tc.in)
		_, _, remoteErr, err := DecodeStateResp(frame[4:])
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if remoteErr == nil {
			t.Fatalf("no remote error for %v", tc.in)
		}
		if tc.want != nil && !errors.Is(remoteErr, tc.want) {
			t.Fatalf("%v did not reconstruct as %v (got %v)", tc.in, tc.want, remoteErr)
		}
		if tc.want == nil && (errors.Is(remoteErr, context.DeadlineExceeded) || errors.Is(remoteErr, context.Canceled)) {
			t.Fatalf("generic error gained a context identity: %v", remoteErr)
		}
		if remoteErr.Error() != tc.in.Error() {
			t.Fatalf("message %q != %q", remoteErr.Error(), tc.in.Error())
		}
	}
}

// wireCodecs decodes each partition message type and re-encodes what it
// accepted, so a test can check both strictness and canonicality.
var wireCodecs = map[byte]func(payload []byte) ([]byte, error){
	frameStateReq: func(p []byte) ([]byte, error) {
		id, dl, shape, err := decodeStateReq(p)
		return AppendStateReq(nil, id, dl, shape), err
	},
	frameInputsReq: func(p []byte) ([]byte, error) {
		id, dl, shape, err := decodeInputsReq(p)
		return AppendInputsReq(nil, id, dl, shape), err
	},
	frameRefreshReq: func(p []byte) ([]byte, error) {
		id, dl, shape, keys, err := decodeRefreshReq(p)
		return AppendRefreshReq(nil, id, dl, shape, keys), err
	},
	frameSubscribeReq: func(p []byte) ([]byte, error) {
		id, shape, within, err := decodeSubscribeReq(p)
		return AppendSubscribeReq(nil, id, shape, within), err
	},
	frameHelloReq: func(p []byte) ([]byte, error) {
		id, err := decodeHelloReq(p)
		return AppendHelloReq(nil, id), err
	},
	frameStateResp: func(p []byte) ([]byte, error) {
		id, s, remoteErr, err := DecodeStateResp(p)
		if remoteErr != nil {
			return AppendErrResp(nil, frameStateResp, id, remoteErr), err
		}
		return AppendStateResp(nil, id, &s), err
	},
	frameInputsResp: func(p []byte) ([]byte, error) {
		id, s, remoteErr, err := DecodeInputsResp(p)
		if remoteErr != nil {
			return AppendErrResp(nil, frameInputsResp, id, remoteErr), err
		}
		return AppendInputsResp(nil, id, s.inputs, s.n), err
	},
	frameRefreshResp: func(p []byte) ([]byte, error) {
		id, out, remoteErr, err := DecodeRefreshResp(p)
		return AppendRefreshResp(nil, id, &out, remoteErr), err
	},
	frameSubUpdate: func(p []byte) ([]byte, error) {
		id, u, remoteErr, err := DecodeSubUpdate(p)
		if remoteErr != nil {
			return AppendErrResp(nil, frameSubUpdate, id, remoteErr), err
		}
		return AppendSubUpdate(nil, id, &u), err
	},
	frameHelloResp: func(p []byte) ([]byte, error) {
		id, h, remoteErr, err := DecodeHelloResp(p)
		if remoteErr != nil {
			return AppendErrResp(nil, frameHelloResp, id, remoteErr), err
		}
		return AppendHelloResp(nil, id, &h), err
	},
}

// sampleFrames is one frame of every partition message type, plus the
// error response of every response type and each error kind.
func sampleFrames() map[string][]byte {
	rng := rand.New(rand.NewSource(14))
	st := randState(rng)
	inputs := []aggregate.Input{
		{Key: 4, Bound: interval.Interval{Lo: 1, Hi: 2}, Cost: 3, Class: predicate.Plus},
		{Key: 9, Bound: interval.Interval{Lo: -1, Hi: 5}, Cost: 1, Class: predicate.Maybe},
	}
	out := RefreshOutcome{Installed: []int64{4, 9}, State: randState(rng)}
	hello := Hello{ID: "p0", Tables: []TableSchema{{Name: "links", Columns: []relation.Column{
		{Name: "latency", Kind: relation.Bounded}, {Name: "from", Kind: relation.Exact}}}}}
	return map[string][]byte{
		"state req":            AppendStateReq(nil, 1, 1500, "SELECT SUM(latency) FROM links"),
		"inputs req":           AppendInputsReq(nil, 2, 0, "SELECT MIN(latency) FROM links"),
		"refresh req":          AppendRefreshReq(nil, 3, 99, "Q", []int64{8, 2, 5}),
		"subscribe req":        AppendSubscribeReq(nil, 4, "S", 2.5),
		"hello req":            AppendHelloReq(nil, 5),
		"state resp":           AppendStateResp(nil, 6, &st),
		"inputs resp":          AppendInputsResp(nil, 7, inputs, 321),
		"refresh resp":         AppendRefreshResp(nil, 8, &out, nil),
		"refresh err resp":     AppendRefreshResp(nil, 9, &out, errors.New("source s1: no object 9")),
		"sub update":           AppendSubUpdate(nil, 10, &Update{Seq: 3, At: 17, State: st}),
		"hello resp":           AppendHelloResp(nil, 11, &hello),
		"state err resp":       AppendErrResp(nil, frameStateResp, 12, context.DeadlineExceeded),
		"inputs err resp":      AppendErrResp(nil, frameInputsResp, 13, fmt.Errorf("cut: %w", context.Canceled)),
		"sub update err resp":  AppendErrResp(nil, frameSubUpdate, 14, errors.New("unknown table")),
		"hello err resp":       AppendErrResp(nil, frameHelloResp, 15, context.Canceled),
		"refresh ctx err resp": AppendRefreshResp(nil, 16, &RefreshOutcome{}, context.DeadlineExceeded),
	}
}

// TestWireTruncationRejected: for every message type, the whole payload
// decodes and re-encodes identically, while every strict prefix and one
// trailing byte are rejected at an offset inside the payload.
func TestWireTruncationRejected(t *testing.T) {
	for name, frame := range sampleFrames() {
		payload := frame[4:]
		roundTrip := wireCodecs[payload[0]]
		if again, err := roundTrip(payload); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("%s: round trip: %v", name, err)
		}
		for n := 0; n < len(payload); n++ {
			if _, err := roundTrip(payload[:n]); !positioned(err, n) {
				t.Fatalf("%s: truncation to %d bytes: error %v", name, n, err)
			}
		}
		if _, err := roundTrip(append(payload[:len(payload):len(payload)], 0)); !positioned(err, len(payload)+1) {
			t.Fatalf("%s: trailing byte: error %v", name, err)
		}
	}
}

// positioned reports whether err is a codec rejection inside a payload
// of n bytes.
func positioned(err error, n int) bool {
	var ce *codec.Error
	return errors.As(err, &ce) && ce.Offset >= 0 && ce.Offset <= n && ce.Msg != ""
}

// FuzzDecodePartitionFrame feeds arbitrary payloads to every partition
// decoder: decoding must never panic, every rejection must be positioned
// inside the payload, and every accepted payload must re-encode
// byte-identically (the canonical-encoding invariant).
func FuzzDecodePartitionFrame(f *testing.F) {
	for _, frame := range sampleFrames() {
		f.Add(frame[4:])
	}
	// A state response whose first selection's Valid byte is 2: not a
	// boolean, so not canonical.
	st := aggregate.State{}
	bad := AppendStateResp(nil, 1, &st)[4:]
	bad[1+4+1+1+1+8] = 2
	f.Add(bad)
	// An inputs response whose second input's refresh cost is NaN.
	f.Add(AppendInputsResp(nil, 7, []aggregate.Input{
		{Key: 4, Bound: interval.Interval{Lo: 1, Hi: 2}, Cost: 3, Class: predicate.Plus},
		{Key: 9, Bound: interval.Interval{Lo: -1, Hi: 5}, Cost: math.NaN(), Class: predicate.Maybe},
	}, 2)[4:])
	f.Add([]byte{})
	f.Add([]byte{frameHelloReq, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		for typ, roundTrip := range wireCodecs {
			again, err := roundTrip(payload)
			if err != nil {
				if !positioned(err, len(payload)) {
					t.Fatalf("type 0x%02x: malformed rejection %v for %x", typ, err, payload)
				}
				continue
			}
			if !bytes.Equal(again[4:], payload) {
				t.Fatalf("type 0x%02x: re-encode differs:\n in %x\nout %x", typ, payload, again[4:])
			}
		}
	})
}

func TestRingProperties(t *testing.T) {
	ids := []string{"pa", "pb", "pc", "pd"}
	r1, err := NewRing(ids)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism and order-independence.
	r2, err := NewRing([]string{"pd", "pb", "pa", "pc"})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < relation.NumCanonicalBuckets; b++ {
		if r1.IDs()[r1.Owner(b)] != r2.IDs()[r2.Owner(b)] {
			t.Fatalf("bucket %d owner differs across id orderings", b)
		}
	}
	// Full coverage: every bucket owned, every key routed consistently.
	for key := int64(0); key < 1000; key++ {
		o := r1.OwnerOfKey(key)
		if o < 0 || o >= len(ids) {
			t.Fatalf("key %d routed to %d", key, o)
		}
		b := relation.CanonicalBucket(key)
		if r1.Owner(b) != o {
			t.Fatalf("key %d: bucket owner mismatch", key)
		}
	}
	// Buckets partition across nodes.
	seen := make(map[int]bool)
	for i := range ids {
		for _, b := range r1.Buckets(i) {
			if seen[b] {
				t.Fatalf("bucket %d owned twice", b)
			}
			seen[b] = true
		}
	}
	if len(seen) != relation.NumCanonicalBuckets {
		t.Fatalf("only %d buckets owned", len(seen))
	}
	// A single node owns everything; too many nodes is rejected.
	solo, err := NewRing([]string{"only"})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < relation.NumCanonicalBuckets; b++ {
		if solo.Owner(b) != 0 {
			t.Fatalf("solo ring bucket %d not owned by node 0", b)
		}
	}
	if _, err := NewRing(make([]string, relation.NumCanonicalBuckets+1)); err == nil {
		t.Fatal("oversized ring accepted")
	}
	if _, err := NewRing([]string{"dup", "dup"}); err == nil {
		t.Fatal("duplicate ids accepted")
	}
}
