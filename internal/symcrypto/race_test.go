//go:build race

package symcrypto

// raceEnabled skips allocation accounting under the race detector,
// where instrumentation inflates allocs/op.
const raceEnabled = true
