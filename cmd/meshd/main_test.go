package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildMeshd compiles the daemon once per test into a temp dir.
func buildMeshd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "meshd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestServeAndClientSplitProcess runs the two ends in separate processes,
// the way a deployment does: serve provisions four users and listens on
// an ephemeral port, client imports the provision file and attaches all
// four, and both exit 0.
func TestServeAndClientSplitProcess(t *testing.T) {
	bin := buildMeshd(t)
	prov := filepath.Join(t.TempDir(), "peace.prov")

	serve := exec.Command(bin, "serve", "-listen", "127.0.0.1:0", "-users", "4",
		"-provision", prov, "-duration", "20s", "-stats", "1h")
	stderr, err := serve.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			_ = serve.Process.Kill()
			_ = serve.Wait()
		}
	}()

	// The provision file is written before the socket is bound, so once
	// the address is logged the client has everything it needs.
	serving := regexp.MustCompile(`serving on (\S+)`)
	var addr string
	var log strings.Builder
	sc := bufio.NewScanner(stderr)
	for addr == "" && sc.Scan() {
		log.WriteString(sc.Text() + "\n")
		if m := serving.FindStringSubmatch(sc.Text()); m != nil {
			addr = m[1]
		}
	}
	if addr == "" {
		t.Fatalf("serve never logged its address:\n%s", log.String())
	}

	out, err := exec.Command(bin, "client", "-addr", addr, "-users", "4", "-provision", prov).Output()
	if err != nil {
		t.Fatalf("client: %v\n%s", err, out)
	}
	var rep clientReport
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("client report: %v\n%s", err, out)
	}
	if rep.Established != 4 || rep.Failed != 0 {
		t.Fatalf("established %d, failed %d: %v", rep.Established, rep.Failed, rep.Errors)
	}

	// SIGINT is the graceful path: serve drains and exits 0.
	if err := serve.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
		log.WriteString(sc.Text() + "\n")
	}
	err = serve.Wait()
	exited = true
	if err != nil {
		t.Fatalf("serve: %v\n%s", err, log.String())
	}
}

// TestOnlyServeAndClient pins the daemon's surface: anything that is not
// serve or client — a drill's name, the old -mode switch, a drill's flag —
// exits 2 with usage.
func TestOnlyServeAndClient(t *testing.T) {
	bin := buildMeshd(t)
	for _, args := range [][]string{
		{},
		{"loopback"},
		{"-mode", "chaos"},
		{"serve", "-storm", "2s"},
		{"client", "-loss", "0.05"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("meshd %v: %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(strings.ToLower(string(out)), "usage") {
			t.Errorf("meshd %v printed no usage:\n%s", args, out)
		}
	}
}
