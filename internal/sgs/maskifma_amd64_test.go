//go:build amd64 && !purego

package sgs

import (
	"flag"
	"fmt"
	"os"
	"testing"
	_ "unsafe" // go:linkname

	"github.com/peace-mesh/peace/internal/bn256"
)

// bn256's reading of the CPU's AVX-512 IFMA support, which is all that
// selects between this package's two ways of testing a token list. The
// variable is unexported on purpose (no code may choose the path); this
// test binary reaches it to run the whole suite as a CPU without the
// extension would.
//
//go:linkname bn256SupportsIFMA github.com/peace-mesh/peace/internal/bn256.supportsIFMA
var bn256SupportsIFMA bool

var maskIFMA = flag.Bool("maskifma", false, "run as on a CPU without AVX-512 IFMA")

func TestMain(m *testing.M) {
	flag.Parse()
	if *maskIFMA {
		bn256SupportsIFMA = false
		// The linkname binds by name only: were bn256's variable renamed or
		// made a constant, the store above would land nowhere and this run
		// would quietly repeat the native one.
		g := new(bn256.G1).Base()
		if bn256.PackG1Lanes([]*bn256.G1{g, g, g, g, g, g, g, g}) != nil {
			fmt.Fprintln(os.Stderr, "-maskifma: bn256.PackG1Lanes still packs; the linkname to bn256.supportsIFMA no longer reaches it")
			os.Exit(1)
		}
	}
	os.Exit(m.Run())
}
