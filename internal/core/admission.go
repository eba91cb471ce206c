package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Deadline-aware boot admission control. A boot storm that outruns a
// node's capacity should shed load at the door, not queue unboundedly:
// each compute node gets a bounded in-flight gate with a bounded FIFO
// waiter queue. A boot arriving with the queue full is shed immediately
// with ErrOverloaded; a queued boot whose context expires before a slot
// frees is shed too, well inside its deadline instead of timing out deep
// in the read path.

// AdmissionPolicy bounds per-node boot concurrency.
type AdmissionPolicy struct {
	// MaxInFlight is how many boots one node runs concurrently. Zero or
	// negative disables admission control entirely (the default — the
	// unbounded behavior existing deployments rely on).
	MaxInFlight int
	// MaxQueue bounds boots waiting for a slot on one node. Zero or
	// negative means no queueing: a boot either takes a slot immediately
	// or is shed.
	MaxQueue int
}

// Shed reasons, distinguished internally so telemetry can count them
// apart; both surface as ErrOverloaded.
var (
	errAdmitFull    = errors.New("admission queue full")
	errAdmitExpired = errors.New("deadline expired while queued")
)

// bootGate is one node's admission gate: a bounded in-flight count plus
// a FIFO waiter queue. A finishing boot hands its slot directly to the
// head waiter, so admission order is arrival order.
type bootGate struct {
	mu       sync.Mutex
	inflight int
	queue    []chan struct{}
}

// admit blocks until the caller holds a slot, the queue rejects it, or
// ctx expires. On success the returned release frees the slot (hand it
// to the head waiter, or decrement in-flight); it must be called exactly
// once. queued reports whether the boot waited at all.
func (g *bootGate) admit(ctx context.Context, maxInFlight, maxQueue int) (release func(), queued bool, err error) {
	g.mu.Lock()
	if g.inflight < maxInFlight {
		g.inflight++
		g.mu.Unlock()
		return g.release, false, nil
	}
	if len(g.queue) >= maxQueue {
		g.mu.Unlock()
		return nil, false, errAdmitFull
	}
	slot := make(chan struct{})
	g.queue = append(g.queue, slot)
	g.mu.Unlock()
	select {
	case <-slot:
		return g.release, true, nil
	case <-ctx.Done():
	}
	// Expired while queued. Unless a slot grant raced the deadline, pull
	// the waiter out of the queue; if it did race, the slot is already
	// ours and must be handed straight on.
	g.mu.Lock()
	for i, ch := range g.queue {
		if ch == slot {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			g.mu.Unlock()
			return nil, true, errAdmitExpired
		}
	}
	g.mu.Unlock()
	g.release()
	return nil, true, errAdmitExpired
}

// release frees one slot: the head waiter inherits it if any is queued,
// otherwise the in-flight count drops.
func (g *bootGate) release() {
	g.mu.Lock()
	if len(g.queue) > 0 {
		head := g.queue[0]
		g.queue = g.queue[1:]
		g.mu.Unlock()
		close(head)
		return
	}
	g.inflight--
	g.mu.Unlock()
}

// admit runs one boot through r's admission gate. With admission
// control disabled it admits immediately with a no-op release. Sheds
// are counted in telemetry (admit.shed for a full queue, admit.expired
// for a deadline met while queued) and annotated on the boot span; both
// wrap ErrOverloaded.
func (s *Squirrel) admit(ctx context.Context, r *replica, sp *obs.Span) (func(), error) {
	pol, nodeID := s.cfg.Admission, r.node.ID
	if pol.MaxInFlight <= 0 {
		return func() {}, nil
	}
	maxQueue := pol.MaxQueue
	if maxQueue < 0 {
		maxQueue = 0
	}
	ctr := s.injector().Counters()
	release, queued, err := r.gate.admit(ctx, pol.MaxInFlight, maxQueue)
	if queued {
		ctr.Add("admit.queued", 1)
		sp.Annotate("queued", 1)
	}
	switch {
	case errors.Is(err, errAdmitFull):
		ctr.Add("admit.shed", 1)
		sp.Annotate("shed", 1)
		return nil, fmt.Errorf("core: boot on %s: %w: %w", nodeID, ErrOverloaded, err)
	case errors.Is(err, errAdmitExpired):
		ctr.Add("admit.expired", 1)
		sp.Annotate("shed", 1)
		return nil, fmt.Errorf("core: boot on %s: %w: %w: %w", nodeID, ErrOverloaded, err, ctx.Err())
	}
	ctr.Add("admit.admitted", 1)
	return release, nil
}
