package source

import (
	"fmt"

	"trapp/internal/boundfn"
	"trapp/internal/netsim"
)

// Delayed propagation of insertions and deletions (paper section 8.3).
//
// The core architecture propagates object insertions and deletions to
// caches immediately, which is why COUNT without a predicate needs no
// refreshes (section 5.3). Section 8.3 proposes relaxing this: the source
// may delay propagation as long as the number of unpropagated events is
// bounded, and COUNT answers account for the bounded discrepancy. This
// file implements that relaxation: a source configured with a propagation
// slack k queues insert/delete events and flushes them to its watchers
// whenever the queue reaches k (or on demand); watchers learn k so their
// cardinality-sensitive answers can widen by ±pending events.
//
// Aggregates other than COUNT cannot soundly tolerate missing tuples
// (an unpropagated insert contributes an unknown value), so query
// processors flush before evaluating them — see trapp.System.Execute.

// TableEvent is one deferred insertion or deletion.
type TableEvent struct {
	// Insert distinguishes insertions from deletions.
	Insert bool
	// Key identifies the object.
	Key int64
	// Meta carries cache-side exact column values for insertions (e.g.
	// link endpoints), in schema order of the cache's exact columns.
	Meta []float64
}

// Watcher observes a source's table membership. Caches implement it.
type Watcher interface {
	// OnTableEvent applies a propagated insertion or deletion. For
	// insertions the watcher is expected to Subscribe to the new object.
	OnTableEvent(src *Source, ev TableEvent)
}

// Watch registers a watcher for membership events and returns the current
// propagation slack so the watcher can widen cardinality answers.
func (s *Source) Watch(w Watcher) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.watchers = append(s.watchers, w)
	return s.slack
}

// SetPropagationSlack configures the maximum number of unpropagated
// events; 0 (the default) restores immediate propagation and flushes any
// queue.
func (s *Source) SetPropagationSlack(k int) {
	s.mu.Lock()
	if k < 0 {
		k = 0
	}
	s.slack = k
	var flush []TableEvent
	if len(s.pending) >= s.slack && len(s.pending) > 0 {
		flush = s.takePendingLocked()
	}
	watchers := append([]Watcher(nil), s.watchers...)
	s.mu.Unlock()
	deliver(s, watchers, flush)
}

// Pending returns the number of queued, unpropagated events.
func (s *Source) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// Slack returns the configured propagation slack bound.
func (s *Source) Slack() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slack
}

// InsertObject adds a new master object and propagates (or queues) the
// insertion event. meta is forwarded to watchers for their exact columns.
func (s *Source) InsertObject(key int64, values []float64, cost float64, policy boundfn.WidthPolicy, meta []float64) error {
	if err := s.AddObject(key, values, cost, policy); err != nil {
		return err
	}
	s.enqueue(TableEvent{Insert: true, Key: key, Meta: append([]float64(nil), meta...)})
	return nil
}

// RemoveObject deletes a master object and propagates (or queues) the
// deletion event. Registrations for the object are dropped.
func (s *Source) RemoveObject(key int64) error {
	s.mu.Lock()
	if _, ok := s.objects[key]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("source %s: no object %d", s.id, key)
	}
	delete(s.objects, key)
	s.mu.Unlock()
	s.enqueue(TableEvent{Insert: false, Key: key})
	return nil
}

// enqueue queues the event and flushes if the slack is exhausted (or
// immediate propagation is configured).
func (s *Source) enqueue(ev TableEvent) {
	s.mu.Lock()
	s.pending = append(s.pending, ev)
	var flush []TableEvent
	if len(s.pending) > s.slack || s.slack == 0 {
		flush = s.takePendingLocked()
	}
	watchers := append([]Watcher(nil), s.watchers...)
	s.mu.Unlock()
	deliver(s, watchers, flush)
}

// FlushEvents propagates all queued events immediately, e.g. before a
// query that cannot tolerate cardinality slack.
func (s *Source) FlushEvents() {
	s.mu.Lock()
	flush := s.takePendingLocked()
	watchers := append([]Watcher(nil), s.watchers...)
	s.mu.Unlock()
	deliver(s, watchers, flush)
}

// takePendingLocked drains the queue. Caller holds s.mu.
func (s *Source) takePendingLocked() []TableEvent {
	out := s.pending
	s.pending = nil
	return out
}

// deliver sends events to watchers outside the source lock, one
// propagation message per event per watcher.
func deliver(s *Source, watchers []Watcher, events []TableEvent) {
	for _, ev := range events {
		for _, w := range watchers {
			s.net.SendFrom(s.id, netsim.Propagation, 1, 0)
			w.OnTableEvent(s, ev)
		}
	}
}
