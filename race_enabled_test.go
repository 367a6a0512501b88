//go:build race

package atmostonce

// raceEnabled reports whether the race detector instruments this build,
// whose instrumentation allocates too.
const raceEnabled = true
