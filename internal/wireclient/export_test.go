package wireclient

// ReaderHeld reports whether some call holds c's read token.
func ReaderHeld(c *Client) bool { return len(c.reader) == 0 }
