//go:build !race

package atmostonce

const raceEnabled = false
