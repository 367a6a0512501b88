//go:build !race

package netmem

const raceEnabled = false
