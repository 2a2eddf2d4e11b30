# PEACE reproduction — common development targets.

GO ?= go

# The backbone control-plane tests: nodes stepped over an in-memory
# fabric with seeded faults, no goroutine and no sleep, plus the two that
# drive started nodes' one loop over loopback and the shard loop's side of
# an adoption; the race runs repeat them.
BACKBONE_PLANE_TESTS = ^Test(GossipRoundFitsBufferAtAnyRate|OwnerAdsRoutedNotFlooded|OwnerAdsSurviveLoss|OwnerAdsCrossPartitions|OwnerAdsRouteAroundCutLink|LinkUpWithoutWaitingForTick|StaleHelloIsRedrawn|HandoffOutReleasesOnce|DuplicatedAdsCountOnce|PlaneSchedules|NodeDriverWakes|HandoffAdoptedAllocs)$$

# The router's and the client's step tests: dispatch driven one datagram
# at a time through a recording egress, and the client's phases stepped
# against it on one clock, no sockets written and no sleeps, so the race
# runs repeat them cheaply.
TRANSPORT_STEP_TESTS = ^Test(DispatchGateMatrix|DispatchCorruptEscrow|ResumeExpiryBoundary|HandoffAnnouncedAfterFlush|DrainWaitsForAnnouncement|AccessGroupOneFlush|DrainWaitsForAccessReply|ClientStepMatrix)$$

# The ingest queue's share rule, stepped with no drainer, and a group's
# key pass, driven through handleGroup on the test's goroutine; the race
# runs repeat them as they repeat the transport's steps.
CORE_STEP_TESTS = ^Test(IngestFillsLanes|DHPassOnlySurvivors)$$

.PHONY: all build test race bench bench-smoke experiments examples vet fmt cover clean ci fuzz staticcheck metrics-lint harness-lint meshd-loopback meshd-drill chaos-soak restart-soak metro-soak attack-soak

all: build test

# ci is the full gate: static checks, build, tests, the race detector
# over every package with concurrent paths (batch verifier, ingest queue,
# transport datapath, backbone), and a short fuzz smoke of
# every wire-facing decoder. The bn256 kernels (field multiplication, and
# the AVX-512 IFMA lanes the revocation scan and grouped verification run
# on) have an assembly path and a Go one, so bn256 and sgs are tested three
# ways: natively; under purego, which keeps the Go paths green on the
# machine that normally runs the assembly; and with the IFMA bit masked
# (-maskifma, a flag of those two test binaries on amd64), which runs the
# assembly build as a CPU without the extension would. The arm64 build
# proves everything compiles where the Go paths are the only ones; the
# 386 and darwin builds do the same for batchio's portable side, which
# has no recvmmsg path and a no-op EnableGRO.
ci:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) metrics-lint
	$(MAKE) harness-lint
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=386 $(GO) build ./...
	GOOS=darwin $(GO) build ./...
	$(GO) test ./...
	$(GO) test -tags purego ./internal/bn256/ ./internal/sgs/
	@if [ "$$($(GO) env GOARCH)" = amd64 ]; then \
		echo "$(GO) test ./internal/bn256/ ./internal/sgs/ -args -maskifma"; \
		$(GO) test ./internal/bn256/ ./internal/sgs/ -args -maskifma; fi
	$(MAKE) race
	$(MAKE) bench-smoke
	$(MAKE) fuzz
	$(MAKE) chaos-soak
	$(MAKE) restart-soak
	$(MAKE) metro-soak
	$(MAKE) attack-soak

# fuzz smoke: each wire-facing decoder gets a short randomized run, plus
# differential fuzzes of the resume's in-place M.2 escrow check against
# the M.2 decoder, of the Montgomery field core against big.Int, of
# the lane kernels against their twins, the scalar tower and big.Int, of
# the lane G1 sums against MultiScalarMult, of
# G2.Unmarshal's ψ subgroup test against [n]Q = ∞, of the cut that
# splits a UDP GRO train against a byte-wise walk, and of the stack-held
# HMAC under every key derivation and MAC against crypto/hmac.
fuzz:
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzGfPvsBigInt$$' -fuzztime=10s
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzX8VsGfP$$' -fuzztime=10s
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzG2Unmarshal$$' -fuzztime=10s
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzG1MulLanes$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalBeacon$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalAccessRequest$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzCheckAccessRequest$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalPeerHello$$' -fuzztime=10s
	$(GO) test ./internal/revocation/ -run='^$$' -fuzz='^FuzzUnmarshalSnapshot$$' -fuzztime=10s
	$(GO) test ./internal/revocation/ -run='^$$' -fuzz='^FuzzUnmarshalDelta$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalPingBody$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalPongBody$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalDataFrame$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalTicket$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalResumeRequest$$' -fuzztime=10s
	$(GO) test ./internal/backbone/ -run='^$$' -fuzz='^FuzzUnmarshalRouterHello$$' -fuzztime=10s
	$(GO) test ./internal/backbone/ -run='^$$' -fuzz='^FuzzUnmarshalRouterWelcome$$' -fuzztime=10s
	$(GO) test ./internal/backbone/ -run='^$$' -fuzz='^FuzzUnmarshalLinkEnvelope$$' -fuzztime=10s
	$(GO) test ./internal/backbone/ -run='^$$' -fuzz='^FuzzUnmarshalGossipBody$$' -fuzztime=10s
	$(GO) test ./internal/backbone/ -run='^$$' -fuzz='^FuzzUnmarshalOwnerAds$$' -fuzztime=10s
	$(GO) test ./internal/backbone/ -run='^$$' -fuzz='^FuzzUnmarshalRelayBody$$' -fuzztime=10s
	$(GO) test ./internal/puzzle/ -run='^$$' -fuzz='^FuzzUnmarshalPuzzle$$' -fuzztime=10s
	$(GO) test ./internal/puzzle/ -run='^$$' -fuzz='^FuzzVerifySolution$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzPeekAccessRequest$$' -fuzztime=10s
	$(GO) test ./internal/transport/batchio/ -run='^$$' -fuzz='^FuzzSplitCoalesced$$' -fuzztime=10s
	$(GO) test ./internal/symcrypto/ -run='^$$' -fuzz='^FuzzHMACvsStdlib$$' -fuzztime=10s

# metrics-lint gates the instrument namespace: the registry itself
# panics on non-snake_case or kind-conflicting names at registration, and
# the lint tests instantiate every layer's production registry to prove
# all names are snake_case, unique, and collision-free across the
# registries meshd merges into one /metrics exposition.
metrics-lint:
	$(GO) test ./internal/metrics/ -run='^(TestRegistrationRules|TestInstrumentNamingLint)$$' -count=1

# harness-lint keeps drivers out of what ships: the daemon, the key tool
# and the two production packages under them may not depend, even
# transitively, on the fault-injection testbed or the experiments.
harness-lint:
	@bad="$$($(GO) list -deps ./cmd/meshd ./cmd/peacekeys ./internal/transport ./internal/backbone | grep -E 'internal/(chaos|experiments)$$')"; \
	if [ -n "$$bad" ]; then echo "harness imported by a production package:"; echo "$$bad"; exit 1; fi

# staticcheck runs when the binary is present and is skipped (loudly) when
# it is not — the container image does not ship it and ci must not fetch
# tools from the network.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# meshd-loopback is the transport acceptance drill: 100 concurrent users
# through full M.1–M.3 over real UDP loopback at 5% induced datagram loss.
meshd-loopback:
	$(GO) run ./cmd/meshsoak loopback -users 100 -loss 0.05

# meshd-drill is the revocation acceptance drill: the URL grows by two
# entries per round across four epochs while eight clients re-attach;
# clients must converge via deltas after one cold-start snapshot per list.
meshd-drill:
	$(GO) run ./cmd/meshsoak drill -users 8 -rounds 4 -revoke 2

# chaos-soak is the self-healing acceptance drill: 100 maintained clients
# under 10% loss + 5% corruption + 2% duplication survive a mid-run
# revocation bump, a server restart and a 5s partition of a third of the
# fleet, and every client must re-establish with zero invariant
# violations. Deterministic fault decisions from -seed.
chaos-soak:
	$(GO) run ./cmd/meshsoak chaos -users 100 -seed 42 -storm 2s -partition 5s

# restart-soak is the resumption acceptance drill: 12 maintained clients
# ride three server restarts sharing one STEK ring. Gate: one pairing per
# client, ever — every restart is recovered over the ticket path — and
# both halves of every final session agree on keys.
restart-soak:
	$(GO) run ./cmd/meshsoak restart -users 12 -seed 11

# metro-soak is the roaming acceptance drill: 8 backbone routers under
# lossy/corrupting/duplicating inter-router links, one router partitioned
# mid-wave, while 200 users each make 3 cross-router moves on resumption
# tickets. Gate: 100% session continuity (exactly one pairing per user,
# zero resume fallbacks) and every router refuses a revocation rollback
# after a fleet-wide epoch bump.
metro-soak:
	$(GO) run ./cmd/meshsoak metro -routers 8 -users 200 -moves 3 -partition 2s

# attack-soak is the adaptive-DoS acceptance drill: a seeded attacker
# fleet (spoofed-source garbage floods, solution-less skeleton M.2s,
# cross-source solution replays) storms the attach ingress an order of
# magnitude above the legitimate rate while 16 legit clients hold and
# establish sessions through it. Gate: ≥95% of the legit fleet keeps a
# working session, demanded difficulty ratchets ≥2 steps during the storm
# and decays to 0 within the bound after it, replayed solutions are
# refused, and the flood buys the attacker no pairings.
attack-soak:
	$(GO) run ./cmd/meshsoak attack -users 16 -seed 42 -storm 2s

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core/ ./internal/sgs/ ./internal/transport/ ./internal/transport/batchio/ ./internal/bn256/ ./internal/chaos/ ./internal/backbone/ ./internal/metrics/ ./internal/puzzle/ ./internal/revocation/ ./internal/symcrypto/
	$(GO) test -race -count=10 ./internal/backbone/ -run='$(BACKBONE_PLANE_TESTS)'
	$(GO) test -race -count=20 ./internal/transport/ -run='$(TRANSPORT_STEP_TESTS)'
	$(GO) test -race -count=20 ./internal/core/ -run='$(CORE_STEP_TESTS)'

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every transport/wire benchmark once with
# allocation accounting, then gates on the steady-state paths staying
# allocation-free: TestSteadyStateDecodeAllocs pins the decode side,
# TestDataPlaneAllocs pins the whole batched ingest+egress round trip, and
# a GSO train read back through ReadBatch with UDP GRO, at 0 allocs/op,
# TestKeepaliveAllocs holds the server's ping→pong at 0 allocs/op,
# TestResumeExchangeAllocs holds one in-process ticket resume (both ends)
# to its allocation ceiling, TestClientResumeAllocs the same resume run as
# the Client's stepped phase, TestHandoffExchangeAllocs does the same for a
# resume at another router (a handoff) and holds its announcement step at
# 0 allocs/op, TestAccessAnswerAllocs holds an M.2's submit and its
# answer outside the verification to their ceiling, TestEscrowCheckAllocs
# holds the resume's check of its ticket's escrowed M.2 at 0 allocs/op, and
# TestSealOpenAllocs pins the in-place session crypto (the -benchtime=1x
# pass catches benchmarks that rot).
# TestKDFAllocs pins key derivation, MACs and the STEK lookup at 0
# allocs/op, and BenchmarkResumeExchange prints the resume's µs/op. The
# bn256 and sgs benchmarks mirror the attach ledger's crypto rows (pairing, combined
# Miller, PrepareG2, sign, verify, 16-token sweep) and run once as well.
# Then the lane passes against what each replaces eight of, in one command:
# the revocation scan's per-token pass (PairLanes8), its final
# exponentiation half (FinalExpLanes8) and one of that half's 189
# cyclotomic squarings (CyclotomicSquareLanes8), against the scalar
# Miller loop and final exponentiation, and the sweep set-up's two
# (PrepareG2Lanes8, eight G2 points' lines in one walk, and MillerLanes2,
# eight signatures' two-factor Miller products with a Q per lane) against
# PrepareG2 and MillerCombined2, and the verifier's G1 side
# (G1MulLanes8, one pass of eight two-term sums against eight
# MultiScalarMults). Then the G2 primitives (hash-to-G2, a GLS
# exponentiation, a decode with the ψ subgroup test) and Sign (with its
# allocations: it runs the scalar G1 multiplications), 200
# iterations each. Then, at one and two CPUs, the 16-token sweep of one
# signature (Sweep16), the same sweep for a verified group of eight with
# its set-up shared (SweepGroup8, against the eight alone), a group of eight
# signatures through one verify lane pass against one signature alone
# (VerifyGroup8), the router's whole M.2 path per request for 1, 8, 16
# and 32 wire-decoded requests against a 16-token URL, the same path for
# 64 requests through a started ingest queue with 32 outstanding
# (IngestBurst, which also prints the mean group its drainers cut), and
# TestVerifyGroupAllocs, which holds a group of eight to its allocation
# ceiling. Last the backbone: one tick of a
# two-link router holding the ownership records of 0, 600 and 6,000
# sessions handed off from it, every owner ad acknowledged (flat, in time
# and in bytes), a link from AddPeer to reachable, and
# TestHandoffAdoptedAllocs, which holds the shard loop's side of an
# adoption (the inbox append and the loop's wake) at 0 allocs/op,
# TestEnvelopeReceiveAllocs, which holds a received backbone envelope
# (decoded and opened in place in its ingest slot) at 0 allocs/op, and
# TestRelayReceiveAllocs, which holds a relayed data frame at 0 allocs/op
# both where a router forwards it (the relay body decoded in place and
# its plaintext sealed again) and where the router holding its session
# opens it.
bench-smoke:
	$(GO) test ./internal/transport/ ./internal/wire/ -run='^(TestSteadyStateDecodeAllocs|TestDataPlaneAllocs|TestKeepaliveAllocs|TestResumeExchangeAllocs|TestClientResumeAllocs|TestHandoffExchangeAllocs|TestAccessAnswerAllocs|TestEscrowCheckAllocs)$$' -bench=. -benchmem -benchtime=1x
	$(GO) test ./internal/symcrypto/ -run='^TestKDFAllocs$$' -v -count=1
	$(GO) test ./internal/transport/ -run='^$$' -bench='^BenchmarkResumeExchange$$' -benchmem -benchtime=2000x
	$(GO) test ./internal/bn256/ ./internal/sgs/ -run='^$$' -bench=. -benchtime=1x
	$(GO) test ./internal/bn256/ -run='^$$' -bench='^Benchmark(PairLanes8|CyclotomicSquareLanes8|FinalExpLanes8|PreparedMiller|FinalExponentiation|PrepareG2Lanes8|PrepareG2|MillerLanes2|MillerCombined2|G1MulLanes8)$$' -benchtime=200x
	$(GO) test ./internal/bn256/ -run='^$$' -bench='^Benchmark(HashToG2|G2ScalarMult|G2Unmarshal)$$' -benchtime=200x
	$(GO) test ./internal/sgs/ -run='^$$' -bench='^BenchmarkSign$$' -benchmem -benchtime=200x
	$(GO) test ./internal/sgs/ -run='^$$' -bench='^Benchmark(Sweep16|SweepGroup8|VerifyGroup8)$$' -cpu 1,2 -benchtime=50x
	$(GO) test ./internal/core/ -run='^$$' -bench='^BenchmarkHandleM2Batch$$' -cpu 1,2 -benchtime=10x
	$(GO) test ./internal/core/ -run='^$$' -bench='^BenchmarkIngestBurst$$' -cpu 1,2 -benchtime=10x
	$(GO) test ./internal/sgs/ -run='^TestVerifyGroupAllocs$$' -v -count=1
	$(GO) test ./internal/backbone/ -run='^$$' -bench='^Benchmark(NodeTick|LinkUp)$$' -benchmem -benchtime=100x
	$(GO) test ./internal/backbone/ -run='^Test(HandoffAdoptedAllocs|EnvelopeReceiveAllocs|RelayReceiveAllocs)$$' -v -count=1
	$(GO) test ./internal/core/ -run='^TestSealOpenAllocs$$' -v -count=1

experiments:
	$(GO) run ./cmd/peacebench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/audittrace
	$(GO) run ./examples/keyrotation

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
