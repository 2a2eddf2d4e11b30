package experiments

import (
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
)

// E19AttackRow is one point of the attach-latency-vs-attack-intensity
// sweep: Intensity spoofed sources flood the attach ingress at full rate
// while sequential legitimate attaches are timed against the live
// adaptive puzzle defense.
type E19AttackRow struct {
	Intensity       int
	Samples         int
	Attached        int
	P50             time.Duration
	P99             time.Duration
	PeakDifficulty  uint8
	FloodDatagrams  int64
	PuzzlesVerified int64
}

// RunE19AttackLatency measures legitimate-client attach latency across
// attack intensities over real UDP loopback: the calm baseline pays no
// puzzle, attacked points pay the demanded difficulty plus the flood's
// queueing — the graceful-degradation price of the paper's Section V.A
// defense.
func RunE19AttackLatency(intensities []int, iters int) ([]E19AttackRow, error) {
	if iters < 1 {
		iters = 1
	}
	rows := make([]E19AttackRow, 0, len(intensities))
	for _, intensity := range intensities {
		rep, err := chaos.AttackLatency(chaos.AttackLatencyConfig{
			TestbedConfig: chaos.TestbedConfig{Seed: 19},
			Intensity:     intensity,
			Samples:       8 * iters,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, E19AttackRow{
			Intensity:       rep.Intensity,
			Samples:         rep.Samples,
			Attached:        rep.Attached,
			P50:             rep.P50,
			P99:             rep.P99,
			PeakDifficulty:  rep.PeakDifficulty,
			FloodDatagrams:  rep.FloodDatagrams,
			PuzzlesVerified: rep.PuzzlesVerified,
		})
	}
	return rows, nil
}
