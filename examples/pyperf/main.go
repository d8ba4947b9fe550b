// Command pyperf demonstrates the PyPerf end-to-end stack reconstruction
// of paper §4 (Figure 5): a simulated CPython process whose native stack
// shows only _PyEval_EvalFrameDefault for Python-level calls is merged
// with the interpreter's virtual call stack, yielding a precise stack that
// names Python functions AND the native C libraries they invoke — the
// detail Python-level profilers like Scalene approximate away.
//
// It then runs the sampler against a "live" workload alternating between
// two code paths and prints the resulting gCPU profile.
package main

import (
	"fmt"
	"log"
	"strings"
	"sync/atomic"
	"time"

	"fbdetect"
	"fbdetect/internal/pyperf"
)

func main() {
	// --- Figure 5 walkthrough ---
	proc := pyperf.Process{
		NativeStack: []string{
			"_start", "main", "Py_RunMain",
			pyperf.EvalFrameSymbol, // maps to handle_request
			"call_function",
			pyperf.EvalFrameSymbol, // maps to compress_payload
			"cfunction_call",
			"zlib_compress", "deflate_fast",
		},
		VCSHead: pyperf.BuildVCS("handle_request", "compress_payload"),
	}
	merged, err := pyperf.MergeStack(proc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged end-to-end stack (root -> leaf):")
	for i, frame := range merged {
		fmt.Printf("  %s%s\n", strings.Repeat("  ", i), frame)
	}

	// --- live sampling over an alternating workload ---
	var phase atomic.Int64
	target := func() pyperf.Process {
		if phase.Load()%3 == 0 {
			// One third of the time: the compression path.
			return proc
		}
		return pyperf.Process{
			NativeStack: []string{
				"_start", "main", "Py_RunMain",
				pyperf.EvalFrameSymbol, // handle_request
				pyperf.EvalFrameSymbol, // render_template
			},
			VCSHead: pyperf.BuildVCS("handle_request", "render_template"),
		}
	}
	sampler := pyperf.NewSampler(500*time.Microsecond, target)
	sampler.Start()
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		phase.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	sampler.Stop()

	ss := fbdetect.NewSampleSet()
	for _, folded := range sampler.Stacks() {
		frames := strings.Split(folded, ";")
		tr := make(fbdetect.Trace, len(frames))
		for i, f := range frames {
			tr[i] = fbdetect.Frame{Subroutine: f}
		}
		ss.Add(tr, 1)
	}
	fmt.Printf("\ncaptured %d samples (%d dropped to interpreter races)\n",
		sampler.Count(), sampler.Dropped())
	fmt.Println("gCPU profile from samples:")
	for _, sub := range []string{"handle_request", "render_template", "compress_payload", "zlib_compress"} {
		fmt.Printf("  %-18s %5.1f%%\n", sub, ss.GCPU(sub)*100)
	}
	fmt.Println("\nnote: zlib_compress (a C library) is attributed precisely —")
	fmt.Println("Python-level profilers can only lump it into compress_payload.")
}
