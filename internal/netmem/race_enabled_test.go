//go:build race

package netmem

// raceEnabled reports whether the race detector instruments this build;
// allocation-count guards are meaningless under its instrumentation.
const raceEnabled = true
