//go:build !linux

package daemon

import "net"

// framesWaiting cannot peek at a socket's receive queue on this
// platform, so it says a frame waits and the monitor hands off every
// request that outlives the budget.
func framesWaiting(net.Conn) bool { return true }
