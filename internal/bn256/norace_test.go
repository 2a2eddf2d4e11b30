//go:build !race

package bn256

const raceEnabled = false
