// Package version holds the build version string shared by squirreld
// and squirrelctl, so `-version` on either binary (and the handshake
// diagnostics in between) name the same release.
package version

import (
	"fmt"

	"repro/internal/wireproto"
)

// Build is the human-facing release string. Bump it with behavioral
// releases; bump wireproto.Version only when the framing or the body
// format of an existing frame type changes incompatibly.
const Build = "0.7.0"

// String renders the canonical version line both binaries print for
// -version.
func String() string {
	return fmt.Sprintf("squirrel %s (wire protocol v%d)", Build, wireproto.Version)
}
