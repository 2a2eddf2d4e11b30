# PEACE reproduction — common development targets.

GO ?= go

# The backbone control-plane tests that run several nodes' read loops,
# tickers and floods against each other; the race runs repeat them.
BACKBONE_PLANE_TESTS = ^Test(GossipRoundFitsBufferAtAnyRate|OwnerAdsSurviveLoss|OwnerAdsCrossPartitions|LinkUpWithoutWaitingForTick|StaleHelloIsRedrawn|HandoffOutReleasesOnce)$$

.PHONY: all build test race bench bench-smoke experiments examples vet fmt cover clean ci fuzz staticcheck metrics-lint harness-lint meshd-loopback meshd-drill chaos-soak restart-soak metro-soak attack-soak

all: build test

# ci is the full gate: static checks, build, tests, the race detector
# over every package with concurrent paths (batch verifier, ingest queue,
# transport datapath, mesh forwarding, relay), and a short fuzz smoke of
# every wire-facing decoder. The bn256 kernels (field multiplication, and
# the AVX-512 IFMA lanes the revocation scan and grouped verification run
# on) have an assembly path and a Go one, so bn256 and sgs are tested three
# ways: natively; under purego, which keeps the Go paths green on the
# machine that normally runs the assembly; and with the IFMA bit masked
# (-maskifma, a flag of those two test binaries on amd64), which runs the
# assembly build as a CPU without the extension would. The arm64 build
# proves everything compiles where the Go paths are the only ones.
ci:
	$(GO) vet ./...
	$(MAKE) staticcheck
	$(MAKE) metrics-lint
	$(MAKE) harness-lint
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
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
# differential fuzzes of the Montgomery field core against big.Int and of
# the lane kernels against their twins, the scalar tower and big.Int.
fuzz:
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzGfPvsBigInt$$' -fuzztime=10s
	$(GO) test ./internal/bn256/ -run='^$$' -fuzz='^FuzzX8VsGfP$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzDecodeFrame$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzDecodeMessage$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalBeacon$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalAccessRequest$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalPeerHello$$' -fuzztime=10s
	$(GO) test ./internal/revocation/ -run='^$$' -fuzz='^FuzzUnmarshalSnapshot$$' -fuzztime=10s
	$(GO) test ./internal/revocation/ -run='^$$' -fuzz='^FuzzUnmarshalDelta$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalPingBody$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalPongBody$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzUnmarshalDataFrame$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalTicket$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalResumeRequest$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalRouterHello$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalRouterWelcome$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalLinkEnvelope$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalGossipBody$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalOwnerAds$$' -fuzztime=10s
	$(GO) test ./internal/transport/ -run='^$$' -fuzz='^FuzzUnmarshalRelayBody$$' -fuzztime=10s
	$(GO) test ./internal/puzzle/ -run='^$$' -fuzz='^FuzzUnmarshalPuzzle$$' -fuzztime=10s
	$(GO) test ./internal/puzzle/ -run='^$$' -fuzz='^FuzzVerifySolution$$' -fuzztime=10s
	$(GO) test ./internal/core/ -run='^$$' -fuzz='^FuzzPeekAccessRequest$$' -fuzztime=10s

# metrics-lint gates the instrument namespace: the registry itself
# panics on non-snake_case or kind-conflicting names at registration, and
# the lint tests instantiate every layer's production registry to prove
# all names are snake_case, unique, and collision-free across the
# registries meshd merges into one /metrics exposition.
metrics-lint:
	$(GO) test ./internal/metrics/ -run='^(TestRegistrationRules|TestInstrumentNamingLint)$$' -count=1

# harness-lint keeps drivers out of what ships: the daemon, the key tool
# and the two production packages under them may not depend, even
# transitively, on the fault-injection testbed, the simulator or the
# experiments.
harness-lint:
	@bad="$$($(GO) list -deps ./cmd/meshd ./cmd/peacekeys ./internal/transport ./internal/backbone | grep -E 'internal/(chaos|mesh|experiments)$$')"; \
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
	$(GO) test -race ./internal/core/ ./internal/mesh/ ./internal/anonrelay/ ./internal/sgs/ ./internal/transport/ ./internal/transport/batchio/ ./internal/bn256/ ./internal/chaos/ ./internal/backbone/ ./internal/metrics/ ./internal/puzzle/ ./internal/revocation/
	$(GO) test -race -count=10 ./internal/backbone/ -run='$(BACKBONE_PLANE_TESTS)'

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every transport/wire benchmark once with
# allocation accounting, then gates on the steady-state paths staying
# allocation-free: TestSteadyStateDecodeAllocs pins the decode side,
# TestDataPlaneAllocs pins the whole batched ingest+egress round trip at
# 0 allocs/op, and TestSealOpenAllocs pins the in-place session crypto
# (the -benchtime=1x pass catches benchmarks that rot). The bn256 and sgs
# benchmarks mirror the attach ledger's crypto rows (pairing, combined
# Miller, PrepareG2, sign, verify, 16-token sweep) and run once as well.
# Then the revocation scan's per-token ratio in one command — an eight-lane
# pass against the scalar Miller loop and final exponentiation it replaces
# eight of — and, at one and two CPUs, the 16-token sweep, a group of eight
# signatures through one verify lane pass against one signature alone, and
# the router's whole M.2 path per request for 1, 8, 16 and 32 wire-decoded
# requests against a 16-token URL. Last the backbone: one tick of a
# two-link router holding 0, 600 and 6,000 acknowledged owner ads (flat,
# in time and in bytes), and a link from AddPeer to reachable.
bench-smoke:
	$(GO) test ./internal/transport/ ./internal/wire/ -run='^(TestSteadyStateDecodeAllocs|TestDataPlaneAllocs)$$' -bench=. -benchmem -benchtime=1x
	$(GO) test ./internal/bn256/ ./internal/sgs/ -run='^$$' -bench=. -benchtime=1x
	$(GO) test ./internal/bn256/ -run='^$$' -bench='^Benchmark(PairLanes8|PreparedMiller|FinalExponentiation)$$' -benchtime=200x
	$(GO) test ./internal/sgs/ -run='^$$' -bench='^Benchmark(Sweep16|VerifyGroup8)$$' -cpu 1,2 -benchtime=50x
	$(GO) test ./internal/core/ -run='^$$' -bench='^BenchmarkHandleM2Batch$$' -cpu 1,2 -benchtime=10x
	$(GO) test ./internal/backbone/ -run='^$$' -bench='^Benchmark(NodeTick|LinkUp)$$' -benchmem -benchtime=100x
	$(GO) test ./internal/core/ -run='^TestSealOpenAllocs$$' -v -count=1

experiments:
	$(GO) run ./cmd/peacebench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/audittrace
	$(GO) run ./examples/dosdefense
	$(GO) run ./examples/keyrotation
	$(GO) run ./examples/anoncomm
	$(GO) run ./examples/citymesh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
