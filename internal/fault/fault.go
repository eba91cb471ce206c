// Package fault is a deterministic, seeded fault-injection substrate for
// Squirrel's propagation paths. The paper's offline-propagation design
// (§3.5) exists precisely because multicast registration (§3.2) is lossy
// and compute nodes crash; this package makes those failures injectable so
// the retry/repair/lagging machinery in internal/core can be exercised
// reproducibly.
//
// An Injector is configured with a Plan: a seed plus per-kind
// probabilities. Every transfer decision is a pure function of
// (seed, op, dst, attempt), so a chaos run is reproducible from its seed
// alone, independent of goroutine scheduling or call order. The only
// shared state is the crash budget (Plan.MaxCrashes), which caps how many
// Crash decisions the injector will ever hand out.
package fault

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Kind classifies one injected transfer fault.
type Kind int

// Fault kinds, roughly ordered by severity.
const (
	// None: the transfer is delivered intact.
	None Kind = iota
	// Drop: the destination never receives the stream (lost multicast
	// registration, §3.2's unreliable delivery).
	Drop
	// Truncate: the connection dies mid-stream; the destination holds a
	// prefix of the wire bytes.
	Truncate
	// Corrupt: wire bytes are flipped in flight; the stream CRC and the
	// per-block checksums on Receive catch it.
	Corrupt
	// Crash: the destination node dies mid-transfer and drops offline.
	Crash
	// Torn: the stream arrives intact but the destination crashes midway
	// through applying it, leaving a partially-applied dataset behind
	// (torn zvol.Receive). The receive journal detects and rolls this
	// back on restart.
	Torn
	// Partition: the destination sits on the far side of an open network
	// cut, so nothing reaches it at all. Unlike the kinds above this is
	// never drawn from the per-attempt probability distribution — the
	// cluster reachability map decides it — but transfers across the cut
	// report it like any other fault, and it shares the counter naming.
	Partition
)

// String renders the kind for reports and counter names.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Drop:
		return "drop"
	case Truncate:
		return "truncate"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	case Torn:
		return "torn"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Plan parameterizes an Injector. Probabilities are per transfer attempt
// and must sum to ≤ 1; the remainder is fault-free delivery.
type Plan struct {
	Seed     int64
	Drop     float64 // P(stream lost entirely)
	Truncate float64 // P(stream cut short)
	Corrupt  float64 // P(wire bytes flipped)
	Crash    float64 // P(destination crashes mid-transfer)
	// Torn is P(destination crashes mid-apply): the stream arrives
	// intact but the node dies partway through zvol.Receive, leaving a
	// torn dataset its receive journal must roll back on restart.
	Torn float64
	// MaxCrashes caps Crash and Torn decisions over the injector's
	// lifetime; once spent, would-be crashes degrade to Drop. Zero means
	// no crashes.
	MaxCrashes int

	// Rot is the at-rest lane: P(one stored block has silently rotted)
	// per (node, object, block) when the lane is struck via RotBlock.
	// Unlike the transfer lanes above it is not part of the per-attempt
	// kind distribution — rot happens to data sitting on disk, not to
	// streams in flight.
	Rot float64

	// Slow is the slow-peer lane: P(one peer serve responds slowly) per
	// (op, src, fetch) when struck via SlowServe. Like Rot it is outside
	// the per-attempt kind distribution — a slow serve still delivers
	// intact bytes, just late; the hedged-fetch path exists to cut the
	// latency tail this lane creates.
	Slow float64
	// SlowSec is the simulated stall one slow serve adds when no hedge
	// (or an equally slow hedge) absorbs it. Accounted in reports, never
	// slept.
	SlowSec float64

	// GossipDrop is the gossip-plane lane: P(one index message — a lease
	// refresh to an owner, or a push/pull digest exchange — is lost) per
	// (op, src, dst, round) when struck via DropGossip under "gossip:*"
	// op keys. Like Rot and Slow it sits outside the per-attempt
	// transfer distribution: losing index chatter must not perturb which
	// data transfers fault, and vice versa. The anti-entropy rounds
	// exist to absorb exactly this lane.
	GossipDrop float64
}

// Validate rejects nonsensical plans.
func (p Plan) Validate() error {
	for _, pr := range []float64{p.Drop, p.Truncate, p.Corrupt, p.Crash, p.Torn, p.Rot, p.Slow, p.GossipDrop} {
		if pr < 0 || pr > 1 {
			return fmt.Errorf("fault: probability %v out of [0,1]", pr)
		}
	}
	if p.SlowSec < 0 {
		return fmt.Errorf("fault: negative slow-serve stall")
	}
	if s := p.Drop + p.Truncate + p.Corrupt + p.Crash + p.Torn; s > 1 {
		return fmt.Errorf("fault: probabilities sum to %v > 1", s)
	}
	if p.MaxCrashes < 0 {
		return fmt.Errorf("fault: negative crash budget")
	}
	return nil
}

// Injector decides, deterministically from its plan, which transfers
// fault and how. A nil *Injector is a valid "perfect network" injector.
type Injector struct {
	plan     Plan
	counters *metrics.CounterSet

	mu      sync.Mutex
	crashes int
}

// New builds an injector for the plan.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: plan, counters: metrics.NewCounterSet()}, nil
}

// Plan returns the injector's plan (for logging seeds in reports).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Counters exposes the injector's fault accounting: "fault.<kind>" per
// injected kind plus "fault.crash_degraded" for crashes past the budget.
func (in *Injector) Counters() *metrics.CounterSet {
	if in == nil {
		return nil
	}
	return in.counters
}

// SetCounters points the injector's fault accounting at a traced
// deployment's telemetry counter set; core.New and Squirrel.SetFaults
// call it. A nil injector ignores the call.
func (in *Injector) SetCounters(c *metrics.CounterSet) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.counters = c
	in.mu.Unlock()
}

// Crashes returns how many Crash decisions have been issued so far.
func (in *Injector) Crashes() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashes
}

// roll hashes (seed, op, dst, attempt, lane) into a uniform uint64.
// splitmix64 over an FNV-1a fold gives good avalanche without pulling in
// a full RNG, and keeps every decision order-independent.
func (in *Injector) roll(op, dst string, attempt, lane int) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= fnvPrime
		}
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(in.plan.Seed))
	mix(buf[:])
	mix([]byte(op))
	mix([]byte{0})
	mix([]byte(dst))
	binary.LittleEndian.PutUint64(buf[:], uint64(attempt)<<32|uint64(uint32(lane)))
	mix(buf[:])
	// splitmix64 finalizer.
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// uniform maps a roll to [0, 1).
func uniform(r uint64) float64 { return float64(r>>11) / (1 << 53) }

// Decide picks the fault kind for one transfer attempt of op to dst. It
// is deterministic in (seed, op, dst, attempt) except for the crash
// budget: a Crash past Plan.MaxCrashes degrades to Drop.
func (in *Injector) Decide(op, dst string, attempt int) Kind {
	if in == nil {
		return None
	}
	u := uniform(in.roll(op, dst, attempt, 0))
	p := in.plan
	k := None
	switch {
	case u < p.Crash:
		k = Crash
	case u < p.Crash+p.Torn:
		k = Torn
	case u < p.Crash+p.Torn+p.Drop:
		k = Drop
	case u < p.Crash+p.Torn+p.Drop+p.Truncate:
		k = Truncate
	case u < p.Crash+p.Torn+p.Drop+p.Truncate+p.Corrupt:
		k = Corrupt
	}
	if k == Crash || k == Torn {
		// Torn is a crash too (mid-apply instead of mid-transfer), so it
		// draws from the same budget.
		in.mu.Lock()
		if in.crashes >= p.MaxCrashes {
			k = Drop
			in.counters.Add("fault.crash_degraded", 1)
		} else {
			in.crashes++
		}
		in.mu.Unlock()
	}
	if k != None {
		in.counters.Add("fault."+k.String(), 1)
	}
	return k
}

// DropGossip reports whether one gossip-plane message from src to dst
// in the given round is lost. op is a "gossip:*" key naming the message
// class ("gossip:refresh", "gossip:xchg"). Deterministic in
// (seed, op, src, dst, round) and independent of the transfer lanes, so
// turning index-message loss on replays the same data-plane faults.
// Nil-safe.
func (in *Injector) DropGossip(op, src, dst string, round int64) bool {
	if in == nil || in.plan.GossipDrop <= 0 {
		return false
	}
	if uniform(in.roll(op, src+"\x00"+dst, int(round), 9)) >= in.plan.GossipDrop {
		return false
	}
	in.counters.Add("fault.gossip_drop", 1)
	return true
}

// Note records an externally decided fault of kind k in the injector's
// accounting. The partition lane's verdicts are made by the cluster
// reachability map rather than a probability draw, but they share the
// "fault.<kind>" counter naming with every drawn kind. Nil-safe.
func (in *Injector) Note(k Kind) {
	if in == nil || k == None {
		return
	}
	in.counters.Add("fault."+k.String(), 1)
}

// Damages reports whether bytes of kind k arrive other than they were
// sent — truncated or corrupted — so a receiver must be handed the
// damaged bytes (Damage) rather than the stream that was sent.
func (k Kind) Damages() bool { return k == Truncate || k == Corrupt }

// Deliver decides the fault for one transfer attempt of n bytes and
// returns how many of them reach the destination, without touching the
// bytes themselves — for a reader that only counts what a fault cost,
// or that holds the bytes only in a form it must encode, and so asks
// for them (Damage) only when the verdict Damages:
//
//	None, Torn, Corrupt   n (Corrupt's arrive mangled)
//	Drop, Crash           0
//	Truncate              fewer than n (0 when n is 0)
//
// It makes Strike's one Decide call, so it spends the crash budget
// exactly as Strike does, and it cuts a truncation where Strike cuts it.
func (in *Injector) Deliver(op, dst string, attempt, n int) (Kind, int) {
	k := in.Decide(op, dst, attempt)
	switch k {
	case Drop, Crash:
		return k, 0
	case Truncate:
		if n == 0 {
			return k, 0
		}
		return k, int(in.roll(op, dst, attempt, 1) % uint64(n))
	}
	return k, n
}

// Strike is Deliver applied to the wire bytes, returning the bytes the
// destination actually sees:
//
//	None, Torn      wire unchanged (same slice); Torn dies during apply
//	Drop, Crash     nil — nothing arrives
//	Truncate        a strict prefix copy of wire
//	Corrupt         a same-length copy with a few bytes flipped
//
// Mutations are deterministic in (seed, op, dst, attempt) and never alias
// the input slice, so one encoded stream can be shared across
// destinations.
func (in *Injector) Strike(op, dst string, attempt int, wire []byte) (Kind, []byte) {
	k, n := in.Deliver(op, dst, attempt, len(wire))
	switch {
	case k == Drop || k == Crash:
		return k, nil
	case k.Damages():
		return k, in.Damage(op, dst, attempt, k, n, wire)
	}
	return k, wire
}

// Damage is the bytes step of a verdict that Damages: given the kind and
// arrived count Deliver returned for (op, dst, attempt) and the wire
// bytes that were sent, it returns what reaches the destination — for
// Truncate a strict prefix copy of n bytes, for Corrupt a same-length
// copy with a few bytes flipped (wire itself when empty). It draws no
// verdict and spends no crash budget, so calling it or not never moves
// another draw; the flips are deterministic in (seed, op, dst, attempt),
// and the result never aliases wire. Any other kind returns wire.
func (in *Injector) Damage(op, dst string, attempt int, k Kind, n int, wire []byte) []byte {
	switch {
	case k == Truncate:
		if len(wire) == 0 {
			return nil
		}
		cut := make([]byte, n)
		copy(cut, wire)
		return cut
	case k == Corrupt && len(wire) > 0:
		bad := make([]byte, len(wire))
		copy(bad, wire)
		flips := 1 + int(in.roll(op, dst, attempt, 1)%7)
		for i := 0; i < flips; i++ {
			off := in.roll(op, dst, attempt, 2+i) % uint64(len(bad))
			bad[off] ^= byte(1 + in.roll(op, dst, attempt, 100+i)%255)
		}
		return bad
	}
	return wire
}
