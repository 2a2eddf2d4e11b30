package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/transport"
)

// E4HandshakeReport is what one attach put on its tapped link of a
// one-router UDP testbed, both directions, by message kind.
type E4HandshakeReport struct {
	// Frames and Bytes count the datagrams of each kind: M.1 (beacon), M.2
	// (access request) and M.3 (access confirm), and what unicast UDP adds
	// under its own names — the beacon solicit, and the revocation fetches
	// of a user enrolled without revocation state.
	Frames map[transport.Kind]int
	Bytes  map[transport.Kind]int
	// ThreeMessages is the paper's claim: exactly one M.1, one M.2 and one
	// M.3 per AKA.
	ThreeMessages bool
}

// RunE4Handshake attaches one user over a tapped link and counts the link's
// frames.
func RunE4Handshake() (*E4HandshakeReport, error) {
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{
		Seed: 4,
		// No retransmission on a clean link: every frame counted is one the
		// handshake needed.
		Client: transport.ClientConfig{RetransmitTimeout: 10 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	cl, err := tb.Dial(0)
	if err != nil {
		return nil, err
	}
	var rec chaos.Recorder
	tb.Links[0].Tap(rec.Record)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Attach(ctx); err != nil {
		return nil, fmt.Errorf("e4: attach: %w", err)
	}

	rep := &E4HandshakeReport{Frames: map[transport.Kind]int{}, Bytes: map[transport.Kind]int{}}
	for _, d := range rec.Datagrams() {
		kind, _, err := transport.DecodeFrame(d)
		if err != nil {
			return nil, fmt.Errorf("e4: undecodable datagram on the link: %w", err)
		}
		rep.Frames[kind]++
		rep.Bytes[kind] += len(d)
	}
	rep.ThreeMessages = rep.Frames[transport.KindBeacon] == 1 &&
		rep.Frames[transport.KindAccessRequest] == 1 &&
		rep.Frames[transport.KindAccessConfirm] == 1
	return rep, nil
}

// E4LossyRow is the outcome of attaching a few users over client links that
// drop each datagram, in each direction, with probability Loss: PEACE's
// stateless retry (a retransmitted solicit or M.2, or a fresh AKA) must
// still attach everyone.
type E4LossyRow struct {
	Loss     float64
	Attached int
	Users    int
	// Attempts counts the attaches started, Retransmits the handshake
	// messages re-sent, Dropped the datagrams the links lost.
	Attempts    int64
	Retransmits int64
	Dropped     int64
}

// RunE4Lossy sweeps link-loss probabilities.
func RunE4Lossy(losses []float64) ([]E4LossyRow, error) {
	var out []E4LossyRow
	for _, loss := range losses {
		row, err := runE4Lossy(loss)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func runE4Lossy(loss float64) (E4LossyRow, error) {
	const users = 3
	row := E4LossyRow{Loss: loss, Users: users}
	tb, err := chaos.NewTestbed(chaos.TestbedConfig{
		Users:  users,
		Seed:   int64(100 + loss*1000),
		Faults: chaos.FaultPlan{Drop: loss},
		Client: transport.ClientConfig{RetransmitTimeout: 60 * time.Millisecond, MaxTimeout: time.Second, MaxRetries: 12},
	})
	if err != nil {
		return row, err
	}
	defer tb.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < users; i++ {
		cl, err := tb.Dial(i)
		if err != nil {
			return row, err
		}
		for ctx.Err() == nil {
			if _, err := cl.Attach(ctx); err == nil {
				row.Attached++
				break
			}
		}
		row.Attempts += cl.Stats().AttachAttempts()
		row.Retransmits += cl.Stats().Retransmits()
	}
	row.Dropped = tb.Injected().Dropped
	return row, nil
}
