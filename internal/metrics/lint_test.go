package metrics_test

import (
	"net"
	"testing"

	"github.com/peace-mesh/peace/internal/backbone"
	"github.com/peace-mesh/peace/internal/chaos"
	"github.com/peace-mesh/peace/internal/core"
	"github.com/peace-mesh/peace/internal/metrics"
	"github.com/peace-mesh/peace/internal/transport"
)

// TestInstrumentNamingLint is the metrics-lint gate: it instantiates
// every layer's production registry and checks the full instrument
// namespace — snake_case names, no duplicates within a registry, and no
// collisions between the transport and router registries (meshd merges
// those two into one /metrics exposition, where a shared name would
// silently shadow).
func TestInstrumentNamingLint(t *testing.T) {
	ln, err := transport.NewLocalNetwork(core.Config{}, "grp-lint", 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	chaosReg := metrics.NewRegistry()
	chaos.WrapInRegistry(pc, chaos.FaultPlan{}, chaos.FaultPlan{}, 1, chaosReg)

	// A router's backbone node registers its instruments in its server's
	// registry, so that is the transport namespace to lint.
	srvConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(srvConn, ln.Routers[0], transport.ServerConfig{})
	defer srv.Close()
	bbConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := backbone.NewNode(bbConn, srv, backbone.Config{})
	defer node.Close()
	if _, ok := srv.Stats().Snapshot().Get("backbone_oversize_drops"); !ok {
		t.Error("the backbone node's instruments are missing from its server's registry")
	}

	regs := map[string]metrics.Snapshot{
		"transport": srv.Stats().Snapshot(),
		"router":    ln.Routers[0].Metrics().Snapshot(),
		"chaos":     chaosReg.Snapshot(),
	}
	for layer, snap := range regs {
		seen := make(map[string]bool)
		for _, s := range snap {
			if !metrics.ValidName(s.Name) {
				t.Errorf("%s: instrument %q is not snake_case", layer, s.Name)
			}
			if seen[s.Name] {
				t.Errorf("%s: instrument %q registered twice", layer, s.Name)
			}
			seen[s.Name] = true
		}
	}

	// meshd exposes transport + router through one hub: names must not
	// collide across the pair.
	for _, s := range regs["router"] {
		if _, ok := regs["transport"].Get(s.Name); ok {
			t.Errorf("instrument %q exists in both transport and router registries", s.Name)
		}
	}
}
