package peer

// Per-peer circuit breakers. A holder that keeps failing serves (cut
// behind a partition, crashed mid-serve, persistently flaky fabric) stops
// being selected after Threshold consecutive failures: its breaker opens
// and Ledger.Reserve skips it right after the caller's exclusions, so a
// booting node degrades straight to the PFS instead of burning its
// attempt budget on a dead peer. After Cooldown skipped selections the
// breaker moves to half-open and lets one probe through; a successful
// serve closes it, a failed one reopens it for another cooldown.
//
// Cooldown is counted in selection events rather than wall time, so
// chaos runs stay deterministic: the same seeded workload trips, probes,
// and recovers the same breakers every run.

// BreakerPolicy parameterizes per-peer circuit breakers. The zero value
// disables them — existing deployments keep their failover ladder
// unchanged unless a policy is set.
type BreakerPolicy struct {
	// Threshold is how many consecutive failed serves open a peer's
	// breaker. Zero or negative disables breakers entirely.
	Threshold int
	// Cooldown is how many skipped selections an open breaker waits
	// before allowing a half-open probe. Zero or negative means
	// DefaultBreakerCooldown.
	Cooldown int
}

// Defaults for BreakerPolicy's knobs.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2
)

// DefaultBreakerPolicy returns enabled breakers with default bounds.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{Threshold: DefaultBreakerThreshold, Cooldown: DefaultBreakerCooldown}
}

// Enabled reports whether the policy turns breakers on.
func (p BreakerPolicy) Enabled() bool { return p.Threshold > 0 }

// cooldown is the normalized cooldown length.
func (p BreakerPolicy) cooldown() int {
	if p.Cooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return p.Cooldown
}

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String renders the state for health dumps.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one node's circuit state.
type breaker struct {
	state breakerState
	fails int // consecutive failed serves while closed
	cool  int // skipped selections remaining before a half-open probe
}

// BreakerState reports a node's circuit state: "closed", "open", or
// "half-open" — or "" when breakers are disabled. What
// `squirrelctl -health` prints per peer.
func (l *Ledger) BreakerState(node string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.bpol.Enabled() {
		return ""
	}
	b := l.breakers[node]
	if b == nil {
		return breakerClosed.String()
	}
	return b.state.String()
}

// recordLocked feeds one serve outcome into node's breaker and returns
// whether this very outcome tripped it open. Success closes a half-open
// (or open) breaker and clears the failure streak; failure extends the
// streak, trips a closed breaker at Threshold, and sends a failed
// half-open probe straight back to open. No-op while breakers are
// disabled.
func (l *Ledger) recordLocked(node string, ok bool) (tripped bool) {
	if !l.bpol.Enabled() {
		return false
	}
	b := l.breakers[node]
	if b == nil {
		b = &breaker{}
		l.breakers[node] = b
	}
	switch {
	case ok:
		if b.state != breakerClosed {
			l.counters.Add("breaker.close", 1)
		}
		b.state, b.fails = breakerClosed, 0
	case b.state == breakerHalfOpen:
		// Failed probe: straight back to open for another cooldown.
		b.state, b.cool = breakerOpen, l.bpol.cooldown()
		l.counters.Add("breaker.reopen", 1)
	default:
		b.fails++
		if b.state == breakerClosed && b.fails >= l.bpol.Threshold {
			b.state, b.cool, b.fails = breakerOpen, l.bpol.cooldown(), 0
			l.counters.Add("breaker.trip", 1)
			return true
		}
	}
	return false
}
