package core

import (
	"errors"

	"repro/internal/cluster"
)

// Sentinel errors for the public API. Every lookup failure an operation
// can return wraps one of these, so callers branch with errors.Is
// instead of matching strings — squirrelctl maps them to distinct exit
// codes, and tests assert on identity rather than message text.
var (
	// ErrUnknownImage is returned when an operation names an image that
	// was never registered (or has been deregistered).
	ErrUnknownImage = errors.New("core: unknown image")
	// ErrRegistered is returned by Register for a duplicate image ID.
	ErrRegistered = errors.New("core: image already registered")
	// ErrUnknownNode is returned when an operation names a compute node
	// the cluster does not have.
	ErrUnknownNode = errors.New("core: unknown compute node")
	// ErrNodeOffline is returned when an operation needs a node that is
	// currently down (crashed or administratively offline).
	ErrNodeOffline = errors.New("core: compute node offline")
	// ErrOverloaded is returned by Boot when the node's admission queue
	// is full, or the context deadline expires while the boot is still
	// queued for a slot. The condition is transient: retry after load
	// drains (squirrelctl maps it to its own exit code).
	ErrOverloaded = errors.New("core: boot admission overloaded")
)

// ErrPartitioned marks operations that failed because their target sits
// across an open network cut. It aliases cluster.ErrUnreachable so
// errors.Is matches whichever layer callers import; the condition clears
// when the partition heals.
var ErrPartitioned = cluster.ErrUnreachable
