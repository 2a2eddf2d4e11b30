// Command meshsoak runs the acceptance drills of the PEACE transport:
// each provisions a network in this process, drives it over real UDP
// loopback sockets through internal/chaos's testbed, prints a JSON report
// and exits non-zero on any invariant violation.
//
//   - loopback: N concurrent users through full M.1–M.3 with induced
//     datagram loss — the drill for the retransmission machinery.
//   - drill: the URL grows across epochs between attachment rounds; the
//     report shows how clients converged (delta fetches vs full snapshot
//     fetches) — the drill for epoch-based revocation distribution.
//   - chaos: a fleet of self-healing clients under sustained
//     drop/corruption/duplication, a mid-run revocation bump, a server
//     restart and a partition.
//   - restart: the fleet rides repeated server restarts on resumption
//     tickets — one pairing per client, ever.
//   - metro: an N-router backbone ring with faulty links and a mid-wave
//     partition while users roam across it via ticket handoffs, closed by
//     a revocation anti-rollback probe on every router.
//   - attack: a spoofed-source attacker fleet floods the attach ingress
//     while a legitimate fleet holds and establishes sessions through the
//     storm; judges the suspicion→puzzle loop (difficulty ratchet, bounded
//     decay, replay refusal, attacker cost scaling, legit-fleet survival).
//
// Usage:
//
//	meshsoak loopback -users 100 -loss 0.05
//	meshsoak drill -users 8 -rounds 4 -revoke 2
//	meshsoak chaos -users 100 -seed 42 -storm 2s -partition 5s
//	meshsoak restart -users 12 -seed 11
//	meshsoak metro -routers 8 -users 200 -moves 3 -partition 2s
//	meshsoak attack -users 16 -seed 42 -storm 2s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/peace-mesh/peace/internal/chaos"
)

const usage = `usage: meshsoak loopback|drill|chaos|restart|metro|attack [flags]   (meshsoak <drill> -h)`

// verdict is what every drill report embeds.
type verdict interface{ Failed() bool }

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	drill := os.Args[1]
	fs := flag.NewFlagSet("meshsoak "+drill, flag.ExitOnError)
	tb := chaos.TestbedConfig{Logf: log.Printf}

	// run returns the drill's report and a one-line summary of a clean run.
	var run func() (verdict, string, error)
	switch drill {
	case "loopback":
		fs.IntVar(&tb.Users, "users", 100, "concurrent users")
		fs.Float64Var(&tb.Faults.Drop, "loss", 0.05, "induced datagram loss probability per direction [0,1)")
		fs.Int64Var(&tb.Seed, "seed", 1, "seed for induced loss")
		fs.DurationVar(&tb.SettleTimeout, "timeout", 30*time.Second, "per-handshake timeout")
		run = func() (verdict, string, error) {
			rep, err := chaos.Loopback(tb)
			if err != nil {
				return nil, "", err
			}
			return rep, fmt.Sprintf("%d/%d handshakes established at %.0f%% loss (%.1f/s, %d retransmits, %d datagrams dropped)",
				rep.Established, rep.Users, rep.Loss*100, rep.HandshakesPerSec, rep.ClientRetransmits, rep.DatagramsDropped), nil
		}
	case "drill":
		cfg := chaos.DrillConfig{}
		fs.IntVar(&tb.Users, "users", 8, "persistent client population")
		fs.IntVar(&cfg.Rounds, "rounds", 4, "attachment rounds (URL epochs)")
		fs.IntVar(&cfg.RevokePerRound, "revoke", 2, "revocations between rounds")
		fs.DurationVar(&tb.SettleTimeout, "timeout", 30*time.Second, "per-handshake timeout")
		run = func() (verdict, string, error) {
			cfg.TestbedConfig = tb
			rep, err := chaos.RevocationDrill(cfg)
			if err != nil {
				return nil, "", err
			}
			return rep, fmt.Sprintf("%d attachments over %d epochs converged with %d delta fetches, %d snapshot fetches (max %d full snapshots per client)",
				rep.Established, rep.FinalURLEpoch, rep.DeltaFetches, rep.SnapshotFetches, rep.SnapshotsPerClientMax), nil
		}
	case "chaos":
		cfg := chaos.SoakConfig{}
		fs.IntVar(&tb.Users, "users", 100, "fleet size")
		fs.Int64Var(&tb.Seed, "seed", 1, "seed for every fault and jitter stream")
		fs.DurationVar(&cfg.StormLen, "storm", 2*time.Second, "keepalive soak length before the restart")
		fs.DurationVar(&cfg.PartitionLen, "partition", 5*time.Second, "partition length after the restart")
		run = func() (verdict, string, error) {
			cfg.TestbedConfig = tb
			rep, err := chaos.Soak(cfg)
			if err != nil {
				return nil, "", err
			}
			return rep, fmt.Sprintf("%d/%d clients re-established across restart+partition (%d reattaches, %d keepalives acked, %d faults injected)",
				rep.Established, rep.Users, rep.Reattaches, rep.KeepalivesAcked,
				rep.Injected.Dropped+rep.Injected.Corrupted+rep.Injected.Duplicated+rep.Injected.Reordered), nil
		}
	case "restart":
		fs.IntVar(&tb.Users, "users", 12, "fleet size")
		fs.Int64Var(&tb.Seed, "seed", 1, "seed for every jitter stream")
		run = func() (verdict, string, error) {
			rep, err := chaos.RestartSoak(chaos.RestartSoakConfig{TestbedConfig: tb})
			if err != nil {
				return nil, "", err
			}
			return rep, fmt.Sprintf("%d clients rode %d restarts on %d full handshakes and %d ticket resumes",
				rep.Users, rep.Restarts, rep.FullHandshakes, rep.Resumes), nil
		}
	case "metro":
		cfg := chaos.MetroSoakConfig{}
		tb.Faults = chaos.MetroFaults
		fs.IntVar(&tb.Routers, "routers", 8, "backbone routers in the ring")
		fs.IntVar(&tb.Users, "users", 200, "roaming users")
		fs.IntVar(&cfg.Moves, "moves", 3, "cross-router handoffs per user")
		fs.Int64Var(&tb.Seed, "seed", 1, "seed for every backbone fault stream")
		fs.DurationVar(&cfg.PartitionLen, "partition", 2*time.Second, "how long one router's backbone is blackholed mid-wave (0 = no partition)")
		run = func() (verdict, string, error) {
			cfg.TestbedConfig = tb
			rep, err := chaos.MetroSoak(cfg)
			if err != nil {
				return nil, "", err
			}
			return rep, fmt.Sprintf("%d users × %d moves over %d routers, %d handoffs, %d frames relayed, %d/%d rollbacks refused",
				rep.Users, rep.Moves, rep.Routers, rep.HandoffsIn, rep.FramesRelayed, rep.RollbacksRefused, rep.Routers), nil
		}
	case "attack":
		cfg := chaos.AttackConfig{}
		fs.IntVar(&tb.Users, "users", 16, "legitimate fleet size")
		fs.IntVar(&cfg.Flooders, "flooders", 3, "flooder goroutines spraying the attach ingress")
		fs.IntVar(&cfg.SpoofedSources, "sources", 8, "spoofed source addresses per flooder")
		fs.Int64Var(&tb.Seed, "seed", 1, "seed for every attacker and jitter stream")
		fs.DurationVar(&cfg.StormLen, "storm", 2*time.Second, "flood length")
		run = func() (verdict, string, error) {
			cfg.TestbedConfig = tb
			rep, err := chaos.AttackSoak(cfg)
			if err != nil {
				return nil, "", err
			}
			return rep, fmt.Sprintf("%d/%d legit clients alive through a %d-datagram flood; difficulty %d->%d->0 (decayed in %v), %d solution replays refused",
				rep.LegitAlive, rep.LegitUsers, rep.AttackerDatagrams,
				rep.BaseDifficulty, rep.PeakDifficulty, rep.DecayedIn.Round(time.Millisecond), rep.SolutionReplays), nil
		}
	default:
		fmt.Fprintf(os.Stderr, "meshsoak: unknown drill %q\n%s\n", drill, usage)
		os.Exit(2)
	}
	_ = fs.Parse(os.Args[2:]) // ExitOnError

	rep, summary, err := run()
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
	if rep.Failed() {
		log.Fatalf("meshsoak: %s violated its invariants", drill)
	}
	log.Printf("meshsoak: %s clean: %s", drill, summary)
}
