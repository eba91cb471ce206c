//go:build !race

package zvol

const raceEnabled = false
