//go:build race

package backbone_test

// raceEnabled skips allocation accounting under the race detector, which
// allocates on its own.
const raceEnabled = true
