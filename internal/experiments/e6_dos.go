package experiments

import (
	"context"
	"net"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
)

// E6DoSRow is one row of the flood experiment: a given flood size against
// a router with puzzles on or off.
type E6DoSRow struct {
	FloodSize      int
	PuzzlesEnabled bool
	// ExpensiveVerifications is how many group-signature verifications
	// (pairing work) the router ran: the flood's and the legitimate attach's.
	ExpensiveVerifications int
	// ShedCheaply is how many requests died on the puzzle check.
	ShedCheaply int
	// LegitimateAttached reports whether the honest user still got in.
	LegitimateAttached bool
}

// RunE6DoS runs the flood scenario for each flood size, with and without
// puzzles.
func RunE6DoS(floodSizes []int) ([]E6DoSRow, error) {
	var out []E6DoSRow
	for _, size := range floodSizes {
		for _, defense := range []bool{false, true} {
			row, err := runE6Scenario(size, defense)
			if err != nil {
				return nil, err
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// runE6Scenario is E8's outsider injection at floodSize forged M.2s against
// the router of a one-router UDP testbed, with SetDoSDefense on or off (the
// ingress rate limiter stays off), followed by one legitimate attach.
func runE6Scenario(floodSize int, defense bool) (E6DoSRow, error) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{Seed: int64(floodSize)*2 + boolToInt64(defense)})
	if err != nil {
		return E6DoSRow{}, err
	}
	defer tb.Close()
	tb.Net.Routers[0].SetDoSDefense(defense)
	if _, err := floodForged(tb, floodSize); err != nil {
		return E6DoSRow{}, err
	}
	attached := attach(tb, 0) == nil
	return E6DoSRow{
		FloodSize:              floodSize,
		PuzzlesEnabled:         defense,
		ExpensiveVerifications: tb.Net.Routers[0].Stats().ExpensiveVerifications,
		ShedCheaply:            int(tb.Servers[0].Stats().DoSPuzzlesRejected()),
		LegitimateAttached:     attached,
	}, nil
}

// floodForged has an outsider on its own socket solicit a beacon from router
// 0 of tb and inject n forged M.2s that echo it, and returns how many the
// router answered.
func floodForged(tb *chaos.Testbed, n int) (int, error) {
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	addr := tb.Servers[0].Addr()
	b, err := chaos.SolicitBeacon(conn, addr)
	if err != nil {
		return 0, err
	}
	frames := make([][]byte, n)
	for i := range frames {
		if frames[i], err = chaos.ForgedAccessFrame(b.GR); err != nil {
			return 0, err
		}
	}
	return chaos.Inject(conn, addr, frames)
}

// attach runs one full handshake for user i of tb on a fresh link.
func attach(tb *chaos.Testbed, i int) error {
	cl, err := tb.Dial(i)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = cl.Attach(ctx)
	return err
}

func boolToInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
