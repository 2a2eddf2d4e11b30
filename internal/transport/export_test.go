package transport

// What the external test package (drill_test.go) shares with the
// internal tests: the race-detector switch and the client tuning.
const RaceEnabled = raceEnabled

var TestClientConfig = testClientConfig
