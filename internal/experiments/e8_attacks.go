package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
)

// E8AttackRow is the outcome of one attack scenario from Section V.A.
type E8AttackRow struct {
	Scenario string
	// Attempts is how many adversarial actions were launched.
	Attempts int
	// Succeeded is how many achieved their goal (0 everywhere if PEACE
	// holds).
	Succeeded int
	// Detail is a one-line explanation of what was measured.
	Detail string
}

// RunE8Attacks executes every attack scenario and reports outcomes.
func RunE8Attacks() ([]E8AttackRow, error) {
	var out []E8AttackRow

	// --- Scenario 1: outsider bogus-data injection. -------------------
	row, err := e8Injection()
	if err != nil {
		return nil, err
	}
	out = append(out, row)

	// --- Scenario 2: revoked user re-entry. ----------------------------
	{
		f, err := newFixture(1, 2)
		if err != nil {
			return nil, err
		}
		victim := f.users[0]
		tok, err := f.no.TokenOf("grp-0", 0)
		if err != nil {
			return nil, err
		}
		f.no.RevokeUserKey(tok)
		if err := f.pushRevocations(); err != nil {
			return nil, err
		}

		succeeded := 0
		attempts := 3
		for i := 0; i < attempts; i++ {
			b, err := f.router.Beacon()
			if err != nil {
				return nil, err
			}
			m2, err := victim.HandleBeacon(b, "grp-0")
			if err != nil {
				return nil, err
			}
			if _, _, err := f.router.HandleAccessRequest(m2); err == nil {
				succeeded++
			} else if !errors.Is(err, core.ErrRevokedUser) {
				return nil, err
			}
		}
		out = append(out, E8AttackRow{
			Scenario:  "revoked user re-entry",
			Attempts:  attempts,
			Succeeded: succeeded,
			Detail:    "URL scan (Eq.3) catches the revoked token",
		})
	}

	// --- Scenario 3: rogue (phishing) router. --------------------------
	if row, err = e8RogueRouter(); err != nil {
		return nil, err
	}
	out = append(out, row)

	// --- Scenario 4: revoked router service. ---------------------------
	{
		f, err := newFixture(1, 1)
		if err != nil {
			return nil, err
		}
		f.no.RevokeRouter("MR-0")
		if err := f.pushRevocations(); err != nil {
			return nil, err
		}
		b, err := f.router.Beacon()
		if err != nil {
			return nil, err
		}
		succeeded := 0
		if _, err := f.users[0].HandleBeacon(b, "grp-0"); err == nil {
			succeeded++
		}
		out = append(out, E8AttackRow{
			Scenario:  "revoked router service",
			Attempts:  1,
			Succeeded: succeeded,
			Detail:    "CRL check rejects the revoked certificate",
		})
	}

	// --- Scenario 5: transcript replay. --------------------------------
	{
		f, err := newFixture(1, 1)
		if err != nil {
			return nil, err
		}
		_, m2, _, _, _, err := f.handshake(f.users[0], "grp-0")
		if err != nil {
			return nil, err
		}
		// Replay the same M.2 after the window.
		f.clock.Advance(5 * time.Minute)
		succeeded := 0
		if _, _, err := f.router.HandleAccessRequest(m2); err == nil {
			succeeded++
		}
		out = append(out, E8AttackRow{
			Scenario:  "stale M.2 replay",
			Attempts:  1,
			Succeeded: succeeded,
			Detail:    "timestamp freshness window rejects the replay",
		})
	}

	return out, nil
}

// e8Injection floods the router of a one-router UDP testbed, holding one
// honest session, with 20 forged M.2s; the attacker succeeds with any
// session beyond the honest user's.
func e8Injection() (E8AttackRow, error) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{Seed: 81})
	if err != nil {
		return E8AttackRow{}, err
	}
	defer tb.Close()
	if err := attach(tb, 0); err != nil {
		return E8AttackRow{}, fmt.Errorf("e8: honest attach: %w", err)
	}
	sent, err := floodForged(tb, 20)
	if err != nil {
		return E8AttackRow{}, err
	}
	return E8AttackRow{
		Scenario:  "outsider bogus injection",
		Attempts:  sent,
		Succeeded: tb.Net.Routers[0].Stats().SessionsEstablished - 1,
		Detail:    "forged M.2s rejected by group-signature verification",
	}, nil
}

// e8RogueRouter points three enrolled users of a UDP testbed at a phishing
// router (chaos.NewRogueRouter), five attaches each. Every attach must end
// in the user refusing the beacon; the phisher succeeds with every M.2 it
// receives.
func e8RogueRouter() (E8AttackRow, error) {
	const users, attempts = 3, 5
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{Users: users, Seed: 83})
	if err != nil {
		return E8AttackRow{}, err
	}
	defer tb.Close()
	rogue, err := chaos.NewRogueRouter(tb.Net, "MR-phish")
	if err != nil {
		return E8AttackRow{}, err
	}
	defer rogue.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < users; i++ {
		cl, err := tb.Dial(i)
		if err != nil {
			return E8AttackRow{}, err
		}
		cl.Retarget(rogue.Addr())
		for k := 0; k < attempts; k++ {
			if _, err := cl.Attach(ctx); !errors.Is(err, core.ErrBadBeacon) {
				return E8AttackRow{}, fmt.Errorf("e8: user %d at the rogue router: %v, want the beacon refused", i, err)
			}
		}
	}
	return E8AttackRow{
		Scenario:  "rogue router phishing",
		Attempts:  users * attempts,
		Succeeded: rogue.Router().Stats().RequestsSeen,
		Detail:    "self-signed certificate fails NPK validation in Step 2.1",
	}, nil
}
