//go:build !race

package symcrypto

const raceEnabled = false
