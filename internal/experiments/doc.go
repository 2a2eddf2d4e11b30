// Package experiments implements the reproduction of every quantitative
// claim in the paper's evaluation (Section V), one experiment per claim,
// as catalogued in DESIGN.md §3 and EXPERIMENTS.md. Each experiment
// returns a structured report; the cmd/peacebench tool renders them as
// tables, and the repository-level benchmarks (bench_test.go) re-measure
// the hot paths under testing.B.
//
// Experiments:
//
//	E1  signature length versus RSA-1024 (communication overhead)
//	E2  sign/verify operation counts versus the paper's formulas
//	E3  verification cost versus |URL|; linear versus fast revocation
//	E4  three-message AKA on a tapped UDP testbed link; attach under loss
//	E5  hybrid session authentication: group signature versus MAC
//	E6  forged-M.2 flooding with and without client puzzles
//	E7  operator audit cost versus |grt|, plus a full law-authority trace
//	E8  attack-resilience scenarios (bogus injection, phishing, revoked entities)
//	E9  privacy properties (anonymity, unlinkability, split-knowledge)
//	E10 pairing-substrate microbenchmarks
package experiments
