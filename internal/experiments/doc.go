// Package experiments reproduces the paper's evaluation (Section V), one
// experiment per claim, as catalogued in DESIGN.md §3 and EXPERIMENTS.md.
// Each experiment returns a structured report that a test in this package
// pins; cmd/peacebench renders them as tables. What the running system
// costs is measured elsewhere: peacemark (go run ./bench) end to end and
// layer by layer, and the package benchmarks per primitive.
//
// Experiments:
//
//	E1 signature length versus RSA-1024, message sizes, and the
//	   revocation-distribution bytes (beacon, snapshot, delta)
//	E2 sign/verify operation counts versus the paper's formulas
//	E3 verification cost versus |URL|; linear versus fast revocation
//	E4 three-message AKA on a tapped UDP testbed link; attach under loss
//	E5 hybrid session authentication: group signature versus MAC
//	E6 forged-M.2 flooding with and without client puzzles
//	E7 operator audit cost versus |grt|, plus a full law-authority trace
//	E8 attack-resilience scenarios (bogus injection, phishing, revoked entities)
//	E9 privacy properties (anonymity, unlinkability, split-knowledge)
package experiments
