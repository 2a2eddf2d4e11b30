//go:build race

package bn256

// raceEnabled skips allocation accounting under the race detector,
// where instrumentation inflates allocs/op and sync.Pool drops items.
const raceEnabled = true
