package pyperf_test

import (
	"fmt"
	"strings"

	"fbdetect/internal/pyperf"
)

// ExampleMergeStack reconstructs an end-to-end Python stack (paper
// Figure 5).
func ExampleMergeStack() {
	p := pyperf.Process{
		NativeStack: []string{
			"_start", pyperf.EvalFrameSymbol, pyperf.EvalFrameSymbol, "zlib_compress",
		},
		VCSHead: pyperf.BuildVCS("handle", "compress"),
	}
	merged, _ := pyperf.MergeStack(p)
	fmt.Println(strings.Join(merged, ";"))
	// Output:
	// _start;handle;compress;zlib_compress
}
