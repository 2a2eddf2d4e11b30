//go:build !race

package backbone_test

const raceEnabled = false
