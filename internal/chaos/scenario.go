package chaos

import (
	"context"
	mrand "math/rand"
	"time"

	"github.com/peace-mesh/peace/internal/revocation"
)

// SoakConfig scripts one chaos soak: a fleet of self-healing clients
// against a live server, with sustained datagram faults, a mid-run
// revocation bump, a server restart and a timed partition.
type SoakConfig struct {
	// TestbedConfig sizes the fleet (default 24 users) and sets the
	// client-link schedule of the storm phase (default soakFaults).
	TestbedConfig
	// StormLen is how long the fleet soaks under faults before the restart.
	// Default 1500ms.
	StormLen time.Duration
	// PartitionLen is how long the partitioned subset stays blackholed
	// after the restart. Default 1s.
	PartitionLen time.Duration
}

// soakFaults is the chaos soak's default client-link schedule.
var soakFaults = FaultPlan{Drop: 0.10, Corrupt: 0.05, Duplicate: 0.02, Reorder: 0.02}

// soakPartitionFrac is the fraction of the fleet the soak partitions.
const soakPartitionFrac = 0.3

func (c SoakConfig) withDefaults() SoakConfig {
	c.Routers = 1
	if c.Users < 1 {
		c.Users = 24
	}
	if c.Faults == (FaultPlan{}) {
		c.Faults = soakFaults
	}
	if c.StormLen <= 0 {
		c.StormLen = 1500 * time.Millisecond
	}
	if c.PartitionLen <= 0 {
		c.PartitionLen = time.Second
	}
	c.TestbedConfig = c.withFleetClient().withDefaults()
	return c
}

// SoakReport is the outcome of a soak run: aggregate fleet and server
// counters plus every invariant violation found.
type SoakReport struct {
	Verdict

	Users          int
	FinalBootEpoch uint64
	Established    int

	// Fleet self-healing counters, summed.
	Reattaches       int64
	RestartsDetected int64
	DeadPeerEvents   int64
	KeepalivesAcked  int64
	AttachAttempts   int64

	// Injected faults, summed over all client links.
	Injected Counters

	// Server-side evidence that the chaos reached it, both incarnations.
	ServerDecodeErrors   int64
	DuplicatesSuppressed int64
	DrainRejects         int64

	// Router totals across both incarnations.
	SessionsEstablished    int
	ExpensiveVerifications int

	// Revocation anti-rollback evidence.
	InitialURLEpoch uint64
	FinalURLEpoch   uint64
}

// Soak executes the scripted chaos scenario:
//
//  1. provision a network, start the server, launch every client's
//     Maintain loop over a fault-injecting link;
//  2. wait for the whole fleet to attach, then soak under faults for
//     StormLen of keepalive traffic;
//  3. bump the revocation epoch (a key is revoked mid-run), then drain
//     and restart the server — volatile session state is lost, the boot
//     epoch changes, durable state (keys, certificates, revocation)
//     survives;
//  4. blackhole a fraction of the fleet for PartitionLen while the rest
//     re-attaches through the still-faulty network;
//  5. heal the links and wait for every client to re-establish against
//     the new incarnation, then check the invariants.
func Soak(cfg SoakConfig) (*SoakReport, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	rep := &SoakReport{Users: cfg.Users}

	tb, err := NewTestbed(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	router := tb.Net.Routers[0]
	rep.InitialURLEpoch = router.RevocationEpoch(revocation.ListURL)
	if err := tb.Launch(0, cfg.Users); err != nil {
		return nil, err
	}
	fleetUp := func() bool { return tb.Established() == cfg.Users }

	// Phase 1+2: attach through the faulty network, then soak.
	logf("chaos: attaching %d clients through faults %+v", cfg.Users, cfg.Faults)
	tb.Settle(&rep.Verdict, "initial fleet attach", fleetUp)
	logf("chaos: fleet attached, storming for %v", cfg.StormLen)
	time.Sleep(cfg.StormLen)

	// Phase 3: revocation bump, then drain + restart.
	if err := tb.BumpRevocation(1); err != nil {
		return nil, err
	}
	rep.FinalURLEpoch = router.RevocationEpoch(revocation.ListURL)
	if rep.FinalURLEpoch <= rep.InitialURLEpoch {
		rep.violate("revocation bump did not advance the URL epoch (%d -> %d)", rep.InitialURLEpoch, rep.FinalURLEpoch)
	}
	logf("chaos: revocation bumped to epoch %d, restarting server", rep.FinalURLEpoch)

	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = tb.Servers[0].Drain(dctx)
	dcancel()
	if err != nil {
		rep.violate("drain before restart: %v", err)
	}
	if err := tb.Restart(0); err != nil {
		return nil, err
	}

	// Phase 4: partition a deterministic subset while the fleet re-attaches.
	prng := mrand.New(mrand.NewSource(cfg.Seed * 3_000_017))
	nPart := int(float64(cfg.Users) * soakPartitionFrac)
	for _, i := range prng.Perm(cfg.Users)[:nPart] {
		tb.Links[i].PartitionFor(cfg.PartitionLen)
	}
	logf("chaos: partitioned %d/%d clients for %v", nPart, cfg.Users, cfg.PartitionLen)
	time.Sleep(cfg.PartitionLen)

	// Phase 5: heal the links and wait for full recovery.
	for _, l := range tb.Links {
		l.SetPlans(FaultPlan{}, FaultPlan{})
	}
	logf("chaos: links healed, settling")
	tb.Settle(&rep.Verdict, "fleet re-established on new incarnation", fleetUp)

	// Harvest and judge.
	rep.FinalBootEpoch = tb.Servers[0].BootEpoch()
	rep.Established = tb.Established()
	if rep.Established != cfg.Users {
		rep.violate("%d/%d clients re-established after restart", rep.Established, cfg.Users)
	}
	for i, cl := range tb.Clients {
		st := cl.Stats()
		rep.Reattaches += st.Reattaches()
		rep.RestartsDetected += st.RestartsDetected()
		rep.DeadPeerEvents += st.DeadPeerEvents()
		rep.KeepalivesAcked += st.KeepalivesAcked()
		rep.AttachAttempts += st.AttachAttempts()

		// Anti-rollback: every surviving client must have converged onto
		// the bumped epoch despite restart and partition racing the bump.
		if got := tb.Net.Users[i].RevocationEpoch(revocation.ListURL); got != rep.FinalURLEpoch {
			rep.violate("client %d URL epoch %d, want %d (rollback or missed sync)", i, got, rep.FinalURLEpoch)
		}
	}
	tb.ProbeKeys(&rep.Verdict)
	rep.Injected = tb.Injected()
	srv := tb.Servers[0].Stats()
	rep.ServerDecodeErrors = srv.DecodeErrors()
	rep.DuplicatesSuppressed = srv.Duplicates()
	rep.DrainRejects = srv.DrainRejects()
	stats := router.Stats()
	rep.SessionsEstablished = stats.SessionsEstablished
	rep.ExpensiveVerifications = stats.ExpensiveVerifications

	// The chaos must actually have happened, or the run proves nothing.
	if rep.Injected.Dropped == 0 || rep.Injected.Corrupted == 0 || rep.Injected.Duplicated == 0 {
		rep.violate("fault injection inert: %+v", rep.Injected)
	}
	if rep.Injected.PartitionDrops == 0 {
		rep.violate("partition blackholed nothing")
	}
	if rep.ServerDecodeErrors == 0 {
		rep.violate("no corrupted frame ever reached a server decoder")
	}
	if rep.Reattaches < int64(cfg.Users) {
		rep.violate("only %d re-attach cycles for %d clients across a restart", rep.Reattaches, cfg.Users)
	}
	if rep.KeepalivesAcked == 0 {
		rep.violate("no keepalive was ever acknowledged")
	}
	return rep, nil
}
