// Command peacebench prints the paper's evaluation as tables: one
// experiment per claim of Section V, E1–E9, each pinned by a test in
// internal/experiments (see EXPERIMENTS.md for the paper-vs-measured
// record). Timings of the running system are the business of peacemark
// (go run ./bench) and the package benchmarks, not of these tables.
//
// Usage:
//
//	peacebench                      # run every experiment
//	peacebench -exp e3              # run one experiment
//	peacebench -exp e1,e3           # run several
//	peacebench -exp e3 -url 0,1,2,5,10,20,50 -iters 3
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"github.com/peace-mesh/peace/internal/experiments"
	"github.com/peace-mesh/peace/internal/transport"
)

// params are the sweeps and repetitions the flags set.
type params struct {
	urlSizes, grtSizes, floods []int
	iters                      int
}

// experimentList is every experiment peacebench runs, in order. It is the
// one list the -exp flag's help, its unknown-name error and the docs lint
// read.
var experimentList = []struct {
	name string
	run  func(p params) error
}{
	{"e1", func(params) error { return runE1() }},
	{"e2", func(p params) error { return runE2(p.urlSizes) }},
	{"e3", func(p params) error { return runE3(p.urlSizes, p.iters) }},
	{"e4", func(params) error { return runE4() }},
	{"e5", func(p params) error { return runE5(p.iters) }},
	{"e6", func(p params) error { return runE6(p.floods) }},
	{"e7", func(p params) error { return runE7(p.grtSizes) }},
	{"e8", func(params) error { return runE8() }},
	{"e9", func(params) error { return runE9() }},
}

// experimentNames lists experimentList's names, comma-separated.
func experimentNames() string {
	names := make([]string, len(experimentList))
	for i, e := range experimentList {
		names[i] = e.name
	}
	return strings.Join(names, ",")
}

func main() {
	exp := flag.String("exp", "all", "experiments to run: a comma-separated subset of "+experimentNames()+", or all")
	urlSizes := flag.String("url", "0,1,2,5,10,20", "comma-separated |URL| sweep for e3 (e2 uses the last)")
	grtSizes := flag.String("grt", "4,8,16,32,64", "comma-separated |grt| sweep for e7")
	floods := flag.String("floods", "50,200", "comma-separated flood sizes for e6")
	iters := flag.Int("iters", 1, "timing repetitions per point")
	flag.Parse()

	p := params{
		urlSizes: parseInts(*urlSizes),
		grtSizes: parseInts(*grtSizes),
		floods:   parseInts(*floods),
		iters:    *iters,
	}
	if err := run(*exp, p); err != nil {
		log.Fatal(err)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			log.Fatalf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out
}

func run(exp string, p params) error {
	runAll := exp == "all"
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	ran := 0
	for _, e := range experimentList {
		if runAll || want[e.name] {
			ran++
			if err := e.run(p); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
	}
	if !runAll && ran != len(want) {
		return fmt.Errorf("unknown experiment in %q (want a comma-separated subset of %s, or all)", exp, experimentNames())
	}
	return nil
}

func table() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func runE1() error {
	header("E1: signature & message sizes (paper V.C communication overhead)")
	rep, err := experiments.RunE1Size()
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "quantity\tbits\tbytes\tnote")
	fmt.Fprintf(w, "PEACE signature (paper 170/171-bit params)\t%d\t%d\t2·G1 + 5·Z_p\n",
		rep.PaperSignatureBits, rep.PaperSignatureBits/8)
	fmt.Fprintf(w, "RSA-1024 signature (paper baseline)\t%d\t%d\t\n", rep.RSA1024Bits, rep.RSA1024Bits/8)
	fmt.Fprintf(w, "PEACE signature (this repo, BN256)\t%d\t%d\tsame element count, 256-bit curve\n",
		rep.MeasuredSignatureBits, rep.MeasuredSignatureBytes)
	fmt.Fprintf(w, "ECDSA P-256 (router signatures)\t%d\t%d\tDER upper bound\n", rep.ECDSAP256Bits, rep.ECDSAP256Bits/8)
	w.Flush()
	fmt.Println("\nAKA message sizes on the wire (BN256 parameterization):")
	w = table()
	for _, k := range []string{"M.1 beacon", "M.2 access request", "M.3 confirm", "data frame (64B payload)"} {
		fmt.Fprintf(w, "  %s\t%d bytes\n", k, rep.MessageSizes[k])
	}
	w.Flush()
	fmt.Println("paper claim: group signature (1192 bits) ≈ RSA-1024 (1024 bits)  → holds")

	fmt.Println("\nrevocation distribution (epoch references in M.1, signed lists fetched apart):")
	w = table()
	fmt.Fprintf(w, "  M.1 beacon at |URL| = 0, less its signature\t%d bytes\n", rep.BeaconBytes[0])
	fmt.Fprintf(w, "  M.1 beacon at |URL| = %d, less its signature\t%d bytes\n", experiments.E1URLSize, rep.BeaconBytes[1])
	fmt.Fprintf(w, "  URL snapshot at |URL| = %d (cold fetch)\t%d bytes\n", experiments.E1URLSize, rep.SnapshotBytes)
	fmt.Fprintf(w, "  one-entry URL delta (warm fetch)\t%d bytes\n", rep.DeltaBytes)
	w.Flush()
	fmt.Println("claim: the beacon's size is independent of |URL|; warm clients pay delta bytes, not snapshot bytes")
	return nil
}

func runE2(urlSizes []int) error {
	header("E2: operation counts (paper V.C computational overhead)")
	urlSize := 3
	if len(urlSizes) > 0 {
		urlSize = urlSizes[len(urlSizes)-1]
	}
	rep, err := experiments.RunE2OpCounts(urlSize)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "operation\tmeasured exps\tmeasured pairings\tpaper exps\tpaper pairings\tmatch")
	fmt.Fprintf(w, "sign\t%d\t%d\t%d\t%d\t%v\n",
		rep.Sign.Exps, rep.Sign.Pairings, rep.PaperSignExps, rep.PaperSignPairings, rep.SignMatches)
	fmt.Fprintf(w, "verify (|URL|=0)\t%d\t%d(+%d cached)\t%d\t%d\t%v\n",
		rep.Verify.Exps, rep.Verify.Pairings, rep.Verify.GTExps, rep.PaperVerifyExps, rep.PaperVerifyPairings, rep.VerifyMatches)
	fmt.Fprintf(w, "verify (|URL|=%d)\t%d\t%d(+%d cached)\t%d\t%d\t\n",
		rep.URLSize, rep.VerifyWithURL.Exps, rep.VerifyWithURL.Pairings, rep.VerifyWithURL.GTExps,
		rep.PaperVerifyExps, rep.PaperVerifyPairings+rep.PaperPerTokenPairing*rep.URLSize)
	w.Flush()
	fmt.Println("note: this implementation caches e(g1,g2); the paper charges it as the third verify pairing")
	return nil
}

func runE3(urlSizes []int, iters int) error {
	header("E3: verification cost vs |URL| — linear scan vs fast revocation (paper V.C)")
	pts, err := experiments.RunE3RevocationSweep(urlSizes, iters)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "|URL|\tlinear time\tlinear pairings (paper 3+2|URL|)\tfast time\tfast pairings (paper 5)")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%v\t%d\t%v\t%d\n", p.URLSize, p.LinearTime, p.LinearPairings, p.FastTime, p.FastPairings)
	}
	w.Flush()
	fmt.Println("paper claim: linear in |URL|; fast variant constant at 5 pairings  → holds")
	fmt.Println("fast time: Verify of the per-message signature plus the fixed-base index check, computed off the protocol")
	fmt.Println("trade-off: with û fixed, e(A, û) is constant per user, so the O(1) index links a user's signatures")
	fmt.Println("for everyone; BS04 §7 scopes it to an epoch. The router accepts per-message signatures only.")
	return nil
}

func runE4() error {
	header("E4: three-message AKA on a tapped UDP testbed link (paper V.C)")
	rep, err := experiments.RunE4Handshake()
	if err != nil {
		return err
	}
	kinds := make([]transport.Kind, 0, len(rep.Frames))
	for k := range rep.Frames {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	w := table()
	fmt.Fprintln(w, "message\tframes\tbytes")
	for _, k := range kinds {
		fmt.Fprintf(w, "%s\t%d\t%d\n", k, rep.Frames[k], rep.Bytes[k])
	}
	w.Flush()
	fmt.Printf("three-message property observed (1 M.1 + 1 M.2 + 1 M.3): %v\n", rep.ThreeMessages)

	lossy, err := experiments.RunE4Lossy([]float64{0, 0.1, 0.3, 0.5})
	if err != nil {
		return err
	}
	fmt.Println("\nlossy client links (drop per datagram, each direction):")
	w = table()
	fmt.Fprintln(w, "loss\tattached\tattach attempts\tretransmits\tdatagrams dropped")
	for _, r := range lossy {
		fmt.Fprintf(w, "%.0f%%\t%d/%d\t%d\t%d\t%d\n", r.Loss*100, r.Attached, r.Users, r.Attempts, r.Retransmits, r.Dropped)
	}
	w.Flush()
	return nil
}

func runE5(iters int) error {
	header("E5: hybrid session authentication (paper V.C)")
	n := 256 * iters
	rep, err := experiments.RunE5Hybrid(n)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "per-message path\tcost")
	fmt.Fprintf(w, "group signature sign\t%v\n", rep.GroupSignTime)
	fmt.Fprintf(w, "group signature verify\t%v\n", rep.GroupVerifyTime)
	fmt.Fprintf(w, "HMAC tag\t%v\n", rep.MACTime)
	fmt.Fprintf(w, "HMAC verify\t%v\n", rep.MACVerifyTime)
	fmt.Fprintf(w, "AES-GCM seal\t%v\n", rep.SealTime)
	fmt.Fprintf(w, "AES-GCM open\t%v\n", rep.OpenTime)
	w.Flush()
	fmt.Printf("MAC vs group-signature speedup: %.0f×\n", rep.SpeedupAuth)
	fmt.Printf("per message: group signature verify = %d exponentiations + %d pairings; MAC/AEAD open = %d group verifications\n",
		rep.GroupVerifyCounts.Exps, rep.GroupVerifyCounts.Pairings+rep.GroupVerifyCounts.GTExps, rep.SymmetricGroupVerifications)
	fmt.Println("paper claim: hybrid design reduces per-message cost dramatically  → holds")
	return nil
}

func runE6(floods []int) error {
	header("E6: forged-M.2 flood with and without client puzzles, UDP testbed (paper V.A)")
	rows, err := experiments.RunE6DoS(floods)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "flood size\tpuzzles\texpensive verifications\tshed cheaply\tlegit user attached")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%v\n",
			r.FloodSize, r.PuzzlesEnabled, r.ExpensiveVerifications, r.ShedCheaply, r.LegitimateAttached)
	}
	w.Flush()
	fmt.Println("paper claim: puzzles shed floods before pairing work; legit users unaffected  → holds")
	return nil
}

func runE7(grtSizes []int) error {
	header("E7: operator audit cost vs |grt| and the full trace (paper IV.D)")
	pts, err := experiments.RunE7AuditSweep(grtSizes)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "|grt|\taudit time (worst case)\ttokens scanned\tper-token")
	for _, p := range pts {
		fmt.Fprintf(w, "%d\t%v\t%d\t%v\n", p.GrtSize, p.AuditTime, p.TokensScanned, p.PerTokenTime)
	}
	w.Flush()

	trace, err := experiments.RunE7Trace()
	if err != nil {
		return err
	}
	fmt.Printf("full law-authority trace: group=%q uid=%q receipts-verified=%v in %v\n",
		trace.Audit.Group, trace.User, trace.ReceiptVerified, trace.TraceTime)
	return nil
}

func runE8() error {
	header("E8: attack-resilience scenarios, UDP testbed and in-process (paper V.A)")
	rows, err := experiments.RunE8Attacks()
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "scenario\tattempts\tsucceeded\tdefense")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\n", r.Scenario, r.Attempts, r.Succeeded, r.Detail)
	}
	w.Flush()
	fmt.Println("paper claim: all of these attack classes are filtered  → holds (0 successes)")
	return nil
}

func runE9() error {
	header("E9: privacy properties (paper V.B)")
	rep, err := experiments.RunE9Privacy(4)
	if err != nil {
		return err
	}
	w := table()
	fmt.Fprintln(w, "property\tholds")
	fmt.Fprintf(w, "no identity information in any transcript\t%v\n", rep.TranscriptsLeakNoUID)
	fmt.Fprintf(w, "signature components fresh per signature\t%v\n", rep.SignaturesFresh)
	fmt.Fprintf(w, "signatures unlinkable (token recovery on %d/%d)\t%v\n",
		rep.TokensRecovered, rep.Transcripts, rep.SignaturesUnlinkable)
	fmt.Fprintf(w, "session identifiers always fresh\t%v\n", rep.SessionIDsFresh)
	fmt.Fprintf(w, "operator audit reveals group only\t%v\n", rep.OperatorLearnsGroupOnly)
	fmt.Fprintf(w, "compromised members cannot link sessions\t%v\n", rep.CompromisedMemberCannotLink)
	fmt.Fprintf(w, "group manager blind without operator\t%v\n", rep.GMBlind)
	w.Flush()
	for _, n := range rep.Notes {
		fmt.Println("  FAILURE:", n)
	}
	if !rep.SignaturesUnlinkable {
		fmt.Println("  KNOWN GAP: H0's discrete logs are public, so sgs.RecoverSignerToken turns any")
		fmt.Println("  (msg, sig) into the signer's token; unlinkability does not hold until ROADMAP item 1(1).")
	}
	return nil
}
