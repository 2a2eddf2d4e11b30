//go:build amd64 && !purego

package bn256

import (
	"os"
	"strings"
	"testing"
)

// cpuinfoHasAll reports whether the kernel lists every named CPU flag, or
// skips the test where /proc/cpuinfo does not say.
func cpuinfoHasAll(t *testing.T, names ...string) bool {
	t.Helper()
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if strings.HasPrefix(line, "flags") {
			flags = strings.Fields(line)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	for _, name := range names {
		found := false
		for _, f := range flags {
			found = found || f == name
		}
		if !found {
			return false
		}
	}
	return true
}

// TestCPUIDMatchesKernelFlags holds the CPUID stub to the kernel's own
// reading of the same bits: a stub that wrongly said no would silently run
// every test and benchmark on gfpMulGeneric.
func TestCPUIDMatchesKernelFlags(t *testing.T) {
	if want := cpuinfoHasAll(t, "bmi2", "adx"); supportsMULXADX != want {
		t.Fatalf("supportsMULXADX = %v, /proc/cpuinfo says bmi2&&adx = %v", supportsMULXADX, want)
	}
	t.Logf("gfpMul kernel: assembly = %v", supportsMULXADX)
}

// TestGfpMulWithoutMULXADX takes the kernel's exit for older CPUs — the
// tail jump from assembly into gfpMulGeneric — which no machine that has
// the extensions would otherwise run.
func TestGfpMulWithoutMULXADX(t *testing.T) {
	defer func(v bool) { supportsMULXADX = v }(supportsMULXADX)
	supportsMULXADX = false

	vals := gfpEdgeValues()
	for _, a := range vals {
		for _, b := range vals {
			x, y := limbsOf(a), limbsOf(b)
			var got, want gfP
			gfpMul(&got, &x, &y)
			gfpMulGeneric(&want, &x, &y)
			if got != want {
				t.Fatalf("a=%x b=%x: gfpMul=%x want %x", a, b, got, want)
			}
		}
	}
}
