package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"efl/internal/sim"
)

// TestRetryAfterCeil is the regression test for the Retry-After:0 bug —
// the hint was rendered with Round(time.Second)/time.Second, so any
// configured value under 500ms truncated to 0, which reads as "retry
// immediately" and turns backpressure into a client retry storm. The
// header must round UP with a floor of one second.
func TestRetryAfterCeil(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1, RetryAfter: 100 * time.Millisecond})
	defer s.Close()
	release := make(chan struct{})
	blockingRun := func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		<-release
		return []byte("{}"), nil
	}

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.dispatch(httptest.NewRecorder(), &Plan{Key: "ra-a", Timeout: time.Minute, run: blockingRun})
	}()
	waitUntil(t, "job A running", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, inFlight := s.flight["ra-a"]
		return inFlight && len(s.jobs) == 0
	})
	go func() {
		defer wg.Done()
		s.dispatch(httptest.NewRecorder(), &Plan{Key: "ra-b", Timeout: time.Minute, run: blockingRun})
	}()
	waitUntil(t, "job B queued", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.jobs) == 1
	})

	rec := httptest.NewRecorder()
	s.dispatch(rec, &Plan{Key: "ra-c", Timeout: time.Minute, run: blockingRun})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", rec.Code)
	}
	got, err := strconv.Atoi(rec.Header().Get("Retry-After"))
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer", rec.Header().Get("Retry-After"))
	}
	if got < 1 {
		t.Fatalf("Retry-After = %d for a 100ms hint — sub-second hints must ceil to 1", got)
	}
	close(release)
	wg.Wait()
}

// TestRetryAfterSeconds pins the rendering rule directly: ceil, floor 1.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{100 * time.Millisecond, 1},
		{499 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{2500 * time.Millisecond, 3},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// failurePropagation drives one leader plus N coalesced waiters into a
// failing flight and returns the recorders, asserting the shared
// contract: nothing cached, the next identical request starts fresh.
// A non-nil release channel is closed once every waiter has coalesced,
// so the leader can hold the flight open until then.
func failurePropagation(t *testing.T, s *Server, key string, mkPlan func() *Plan, release chan struct{}) []*httptest.ResponseRecorder {
	t.Helper()
	const waiters = 3
	recs := make([]*httptest.ResponseRecorder, waiters+1)
	var wg sync.WaitGroup
	recs[0] = httptest.NewRecorder()
	wg.Add(1)
	go func() { defer wg.Done(); s.dispatch(recs[0], mkPlan()) }()
	waitUntil(t, "leader in flight", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, ok := s.flight[key]
		return ok
	})
	for i := 1; i <= waiters; i++ {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) { defer wg.Done(); s.dispatch(rec, mkPlan()) }(recs[i])
	}
	waitUntil(t, "waiters coalesced", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.coalesced >= waiters
	})
	if release != nil {
		close(release)
	}
	wg.Wait()

	s.mu.Lock()
	_, cached := s.cache.Get(key)
	s.mu.Unlock()
	if cached {
		t.Fatal("failed campaign was cached — the next identical request would replay the failure forever")
	}
	return recs
}

// TestSingleFlightDeadlinePropagation pins what coalesced waiters receive
// when the leader's campaign is deadline-killed: every rider gets a
// retryable 504 with a Retry-After hint, the failure is never cached, and
// the next identical request starts a fresh flight.
func TestSingleFlightDeadlinePropagation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	key := "flight-deadline"
	mkPlan := func() *Plan {
		return &Plan{Key: key, Timeout: 50 * time.Millisecond, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}}
	}
	for i, rec := range failurePropagation(t, s, key, mkPlan, nil) {
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("rider %d got %d, want 504", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("rider %d: retryable 504 without a Retry-After hint", i)
		}
	}
	// Fresh flight afterwards: the same key computes, does not replay.
	rec := httptest.NewRecorder()
	s.dispatch(rec, &Plan{Key: key, Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		return []byte("{}"), nil
	}})
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("retry after deadline failure: HTTP %d X-Cache %q, want 200/miss", rec.Code, rec.Header().Get("X-Cache"))
	}
}

// TestSingleFlightPanicPropagation is the same contract for a panicking
// leader: every rider gets a retryable 500, nothing is cached.
func TestSingleFlightPanicPropagation(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	key := "flight-panic"
	release := make(chan struct{})
	mkPlan := func() *Plan {
		return &Plan{Key: key, Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
			<-release // hold the flight open until every waiter has coalesced
			panic("leader died mid-campaign")
		}}
	}
	for i, rec := range failurePropagation(t, s, key, mkPlan, release) {
		if rec.Code != http.StatusInternalServerError {
			t.Errorf("rider %d got %d, want 500", i, rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("rider %d: retryable 500 without a Retry-After hint", i)
		}
	}
	rec := httptest.NewRecorder()
	s.dispatch(rec, &Plan{Key: key, Timeout: time.Minute, run: func(ctx context.Context, _ *sim.Pool) ([]byte, error) {
		return []byte("{}"), nil
	}})
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("retry after panic: HTTP %d X-Cache %q, want 200/miss", rec.Code, rec.Header().Get("X-Cache"))
	}
}
