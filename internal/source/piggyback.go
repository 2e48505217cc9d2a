package source

import (
	"trapp/internal/netsim"
)

// Piggybacking (paper section 8.3): when a refresh message is already
// being sent to a cache, the source may ride along ("piggyback") extra
// refreshes for other objects whose master values are close to the edge of
// the bound promised to that cache — values likely to escape soon and
// force a full-price refresh anyway. Piggybacked refreshes are recorded as
// netsim.Propagation messages with zero cost, modelling the amortization
// of sharing one network round.
//
// EnablePiggyback sets the proximity fraction f ∈ (0, 1]: an object rides
// along when the distance from its master value to the nearest promised
// bound endpoint is at most f times the bound's half-width. f = 0 (the
// default) disables piggybacking.
func (s *Source) EnablePiggyback(fraction float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	s.piggyback = fraction
}

// piggybackLocked appends extra refreshes for the subscriber to the batch:
// all of its other registered objects (excluded reports the ones already
// being refreshed) whose values are near a bound edge. Caller holds s.mu
// and has checked that piggybacking is enabled.
func (s *Source) piggybackLocked(b *Batch, sub Subscriber, excluded func(int64) bool) {
	now := s.clock.Now()
	for key, o := range s.objects {
		if excluded(key) {
			continue
		}
		reg := o.reg(sub)
		if reg == nil || !s.nearEdgeLocked(reg, now, o.values) {
			continue
		}
		s.promiseLocked(o, reg)
		s.net.SendFrom(s.id, netsim.Propagation, 1, 0)
		b.Append(key, o.seq, o.values, reg.bounds)
	}
}

// nearEdgeLocked reports whether any attribute's master value is within
// the piggyback fraction of its promised bound edge. Zero-width (just
// refreshed) bounds never qualify.
func (s *Source) nearEdgeLocked(reg *registration, now int64, values []float64) bool {
	for i, b := range reg.bounds {
		iv := b.At(now)
		half := iv.Width() / 2
		if half <= 0 {
			continue
		}
		v := values[i]
		distToEdge := half - absFloat(v-iv.Mid())
		if distToEdge < 0 {
			distToEdge = 0 // already escaped; the monitor will catch it
		}
		if distToEdge <= s.piggyback*half {
			return true
		}
	}
	return false
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
