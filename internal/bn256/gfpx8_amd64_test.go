//go:build amd64 && !purego

package bn256

import (
	"flag"
	"math/big"
	"os"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// -maskifma runs the whole suite as a CPU without AVX-512 IFMA would: the
// kernels leave through their Generic twins and PackG1Lanes declines. (The
// sgs tests take the same flag and reach the same variable.) It is a flag
// of the test binary only; nothing that ships can mask the bit.
var maskIFMA = flag.Bool("maskifma", false, "run as on a CPU without AVX-512 IFMA")

func TestMain(m *testing.M) {
	flag.Parse()
	if *maskIFMA {
		supportsIFMA = false
	}
	os.Exit(m.Run())
}

// TestCPUIDIFMAMatchesKernelFlags holds the CPUID/XGETBV stub to the
// kernel's reading of the same bits (Linux lists avx512 flags only when it
// has enabled the ZMM state): a stub that wrongly said no would silently
// run every test and benchmark on the scalar path.
func TestCPUIDIFMAMatchesKernelFlags(t *testing.T) {
	want := cpuinfoHasAll(t, "avx512f", "avx512ifma")
	if got := cpuidIFMA(); got != want {
		t.Fatalf("cpuidIFMA() = %v, /proc/cpuinfo says avx512f&&avx512ifma = %v", got, want)
	}
	t.Logf("lane kernels: assembly = %v", supportsIFMA)
}

// TestKernelConstants derives the kernels' RODATA from P and compares it
// with what gfpx8_amd64.s spells out: the assembly's constants are typed in,
// not computed, and a wrong limb of 4p would otherwise show only as a
// differential failure on whichever operands happen to reach it.
func TestKernelConstants(t *testing.T) {
	src, err := os.ReadFile("gfpx8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]uint64{}
	for _, m := range regexp.MustCompile(`(?m)^DATA (\w+)<>\+(\d+)\(SB\)/8, \$0x([0-9a-f]+)$`).FindAllStringSubmatch(string(src), -1) {
		off, _ := strconv.Atoi(m[2])
		v, _ := strconv.ParseUint(m[3], 16, 64)
		if off != 8*len(got[m[1]]) {
			t.Fatalf("%s: limb at offset %d out of order", m[1], off)
		}
		got[m[1]] = append(got[m[1]], v)
	}

	r52 := new(big.Int).Lsh(big.NewInt(1), 52)
	np := new(big.Int).ModInverse(P, r52)
	np.Sub(r52, np)
	p, twoP, fourP := limbs52(P), limbs52(x8TwoP), limbs52(new(big.Int).Lsh(P, 2))
	want := map[string][]uint64{
		"p52":     p[:],
		"twoP52":  twoP[:],
		"fourP52": fourP[:],
		"np52":    {np.Uint64()},
		"mask52":  {mask52},
	}
	if len(got) != len(want) {
		t.Errorf("found %d constants in gfpx8_amd64.s, know %d", len(got), len(want))
	}
	for name, w := range want {
		if !slices.Equal(got[name], w) {
			t.Errorf("%s = %#x, want %#x", name, got[name], w)
		}
	}
}

// TestLanesWithoutIFMA masks the feature bit, as TestGfpMulWithoutMULXADX
// does for the field kernel: PackG1Lanes then declines whatever the length,
// which is what sends sgs down its scalar loop, and each kernel's exit for
// older CPUs — the tail jump from assembly into its Generic twin — is
// taken and agrees with the references.
func TestLanesWithoutIFMA(t *testing.T) {
	defer func(v bool) { supportsIFMA = v }(supportsIFMA)
	supportsIFMA = false

	if l := PackG1Lanes(randG1s(t, 4*Lanes)); l != nil {
		t.Fatal("PackG1Lanes packed with the IFMA bit masked")
	}
	TestX8KernelsOnEdges(t)
	TestX8MulBeyondInvariant(t)
}
