//go:build !race

package jobd

const raceEnabled = false
