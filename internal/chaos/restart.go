package chaos

import (
	"crypto/rand"
	"fmt"
)

// RestartSoakConfig scripts the resumption-under-restart soak: a fleet of
// self-healing clients rides a server through repeated restarts sharing
// one STEK ring, and the invariant under test is that re-attachment stays
// on the symmetric ticket path — the expensive pairing runs once per
// client per STEK retirement, never per restart.
type RestartSoakConfig struct {
	// TestbedConfig sizes the fleet (default 12 users, clean links).
	TestbedConfig
	// Restarts is how many times the server is killed and reincarnated.
	// Default 3.
	Restarts int
	// RotateBeforeRestart, when in [1, Restarts], rotates the STEK ring
	// PAST the grace window (twice) before that restart, retiring every
	// held ticket: the fleet must then fall back to exactly one full
	// handshake each and resume normally afterwards. 0 disables rotation.
	RotateBeforeRestart int
}

func (c RestartSoakConfig) withDefaults() RestartSoakConfig {
	c.Routers = 1
	if c.Users < 1 {
		c.Users = 12
	}
	if c.Restarts < 1 {
		c.Restarts = 3
	}
	c.TestbedConfig = c.withFleetClient().withDefaults()
	return c
}

// RestartSoakReport is the outcome of a restart soak.
type RestartSoakReport struct {
	Verdict

	Users    int
	Restarts int

	// FullHandshakes is the fleet's total completed M.1–M.3 runs;
	// Resumes is the total completed ticket re-attaches.
	FullHandshakes int64
	Resumes        int64
	// ExpensiveVerifications is the router's cumulative pairing count
	// across all incarnations.
	ExpensiveVerifications int
	// SessionsResumed is the router's cumulative resumed-session count.
	SessionsResumed int
	// TicketsIssued sums the ticket counters of every incarnation.
	TicketsIssued int64
}

// RestartSoak executes the scripted restart scenario:
//
//  1. provision a network whose STEK ring outlives every server
//     incarnation (the operator's persisted ticket key);
//  2. launch the fleet's Maintain loops and wait for the initial full
//     attach — the only pairing each client should ever need;
//  3. Restarts times: kill the server, reboot the router's volatile state
//     (sessions gone), reincarnate on the same address and ring with a
//     new boot epoch, and wait for the whole fleet to re-establish;
//  4. optionally retire the STEK mid-sequence and demand exactly one
//     fallback handshake per client;
//  5. judge: full handshakes ≤ 1 (+1 if rotated) per client, all other
//     re-attaches on the ticket path, keys agreeing end to end.
func RestartSoak(cfg RestartSoakConfig) (*RestartSoakReport, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	rep := &RestartSoakReport{Users: cfg.Users, Restarts: cfg.Restarts}

	tb, err := NewTestbed(cfg.TestbedConfig)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	if err := tb.Launch(0, cfg.Users); err != nil {
		return nil, err
	}
	fleetUp := func() bool { return tb.Established() == cfg.Users }

	logf("restart-soak: attaching %d clients", cfg.Users)
	tb.Settle(&rep.Verdict, "initial fleet attach", fleetUp)

	for k := 1; k <= cfg.Restarts; k++ {
		if k == cfg.RotateBeforeRestart {
			// Rotate past the one-generation grace window: every held
			// ticket's sealing key leaves the ring.
			for i := 0; i < 2; i++ {
				if err := tb.Ring.Rotate(rand.Reader); err != nil {
					return nil, err
				}
			}
			logf("restart-soak: STEK retired before restart %d", k)
		}
		if err := tb.Restart(0); err != nil {
			return nil, err
		}
		epoch := tb.Servers[0].BootEpoch()
		logf("restart-soak: incarnation %d up, settling", epoch)
		if !tb.Settle(&rep.Verdict, fmt.Sprintf("fleet re-established on incarnation %d", epoch), fleetUp) {
			break
		}
	}

	// Harvest and judge.
	for i, cl := range tb.Clients {
		st := cl.Stats()
		rep.FullHandshakes += st.AttachSuccesses()
		rep.Resumes += st.ResumeSuccesses()
		if cl.Session() == nil {
			rep.violate("client %d finished detached", i)
		}
	}
	tb.ProbeKeys(&rep.Verdict)
	stats := tb.Net.Routers[0].Stats()
	rep.ExpensiveVerifications = stats.ExpensiveVerifications
	rep.SessionsResumed = stats.SessionsResumed
	rep.TicketsIssued = tb.Servers[0].Stats().TicketsIssued()

	// The re-attach economics under test: at most one full handshake per
	// client per STEK retirement — so 1 each without rotation, 2 each with.
	maxFulls := int64(cfg.Users)
	if cfg.RotateBeforeRestart >= 1 && cfg.RotateBeforeRestart <= cfg.Restarts {
		maxFulls = int64(2 * cfg.Users)
	}
	if rep.FullHandshakes > maxFulls {
		rep.violate("%d full handshakes for %d clients across %d restarts (budget %d) — restarts leaked off the ticket path",
			rep.FullHandshakes, cfg.Users, cfg.Restarts, maxFulls)
	}
	if rep.ExpensiveVerifications > int(maxFulls) {
		rep.violate("router ran %d pairings, budget %d", rep.ExpensiveVerifications, maxFulls)
	}
	if want := int64(cfg.Users * cfg.Restarts); rep.Resumes < want-maxFulls {
		rep.violate("only %d resumes across %d restarts of %d clients", rep.Resumes, cfg.Restarts, cfg.Users)
	}
	if rep.SessionsResumed == 0 {
		rep.violate("router adopted no resumed sessions")
	}
	if rep.TicketsIssued < int64(cfg.Users) {
		rep.violate("only %d tickets issued", rep.TicketsIssued)
	}
	return rep, nil
}
