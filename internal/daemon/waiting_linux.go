package daemon

import (
	"errors"
	"net"
	"syscall"
)

// framesWaiting reports whether bytes wait unread in nc's receive queue:
// a frame behind the request its reader is serving. It peeks, so the
// bytes stay for the next reader. When it cannot tell, it says yes, and
// the caller hands off as if a frame waited.
func framesWaiting(nc net.Conn) bool {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return true
	}
	waiting := true
	var b [1]byte
	if err := rc.Control(func(fd uintptr) {
		n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		// Nothing queued, or the peer's end of stream, which the reader
		// finds after the request: no frame waits.
		waiting = n > 0 || (err != nil && !errors.Is(err, syscall.EAGAIN))
	}); err != nil {
		return true
	}
	return waiting
}
