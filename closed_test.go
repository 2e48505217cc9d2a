package trapp_test

// Regression test for the Close lifecycle: after System.Close, every
// execution and subscription entry point must return the typed
// ErrClosed instead of racing the continuous engine's teardown (the old
// behavior was undefined: Execute kept working while the engine's
// goroutines shut down under it). Runs race-clean with Close racing
// in-flight executions.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"trapp"
)

func TestCloseThenExecuteReturnsErrClosed(t *testing.T) {
	sys, _ := buildStressSystem(t)
	q := trapp.NewQuery("vals", trapp.Sum, "value")
	q.Within = 10

	// A live subscription so Close actually tears the engine down.
	sub, err := sys.Subscribe(q)
	if err != nil {
		t.Fatal(err)
	}
	_ = sub

	sys.Close()
	sys.Close() // idempotent

	if _, err := sys.ExecuteCtx(context.Background(), q); !errors.Is(err, trapp.ErrClosed) {
		t.Errorf("ExecuteCtx after Close: err = %v, want ErrClosed", err)
	}
	if _, err := sys.ExecuteBatch(context.Background(), []trapp.Query{q}); !errors.Is(err, trapp.ErrClosed) {
		t.Errorf("ExecuteBatch after Close: err = %v, want ErrClosed", err)
	}
	if _, err := sys.Subscribe(q); !errors.Is(err, trapp.ErrClosed) {
		t.Errorf("Subscribe after Close: err = %v, want ErrClosed", err)
	}
	if _, err := sys.SubscribeCtx(context.Background(), q); !errors.Is(err, trapp.ErrClosed) {
		t.Errorf("SubscribeCtx after Close: err = %v, want ErrClosed", err)
	}
}

func TestCloseRacingExecutions(t *testing.T) {
	// Close while clients are mid-flight: every call either completes
	// normally or reports ErrClosed; nothing panics, nothing races.
	sys, _ := buildStressSystem(t)
	q := trapp.NewQuery("vals", trapp.Sum, "value")
	q.Within = 5
	if _, err := sys.Subscribe(q); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for cl := 0; cl < 8; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				if _, err := sys.ExecuteCtx(context.Background(), q); err != nil {
					if !errors.Is(err, trapp.ErrClosed) {
						t.Errorf("racing ExecuteCtx: %v", err)
					}
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		sys.Close()
	}()
	close(start)
	wg.Wait()
}

func TestSubscribeCtxClosesOnCancel(t *testing.T) {
	sys, _ := buildStressSystem(t)
	defer sys.Close()
	q := trapp.NewQuery("vals", trapp.Sum, "value")
	q.Within = 50

	ctx, cancel := context.WithCancel(context.Background())
	sub, err := sys.SubscribeCtx(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	// The subscription channel must close (drain pending updates first).
	for range sub.Updates() {
	}
}
