package pprofparse

import (
	"os"
	"testing"
)

// FuzzPprofParse feeds arbitrary bytes to the full parse+convert path,
// seeded with a real runtime/pprof profile (testdata/cpu.pb.gz) and
// deterministic encoder output so the mutator starts from valid wire
// bytes. The parser takes uploads straight off the network: it must never
// panic, never over-read, and any profile it accepts must convert into a
// sample set with in-range gCPU, and fold to exactly that set's gCPU.
func FuzzPprofParse(f *testing.F) {
	if real, err := os.ReadFile("testdata/cpu.pb.gz"); err == nil {
		f.Add(real)
	}
	b := NewBuilder("cpu", "nanoseconds")
	b.SetTimeNanos(1722470400e9)
	b.SetPeriod(10e6)
	b.Add([]string{"main.main", "app.Run", "app.(*Server).Handle"}, 70)
	b.Add([]string{"main.main", "pkg.encode"}, 30)
	f.Add(b.Profile().Marshal())
	f.Add(b.Profile().MarshalGzip())
	f.Add([]byte{})
	f.Add([]byte{0x0a, 0x00})
	f.Add([]byte{0x1f, 0x8b})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap decompression tightly: the fuzzer will synthesize bombs.
		p, err := ParseLimit(data, 1<<20)
		if err != nil {
			return
		}
		ss, err := p.SampleSet(ConvertOptions{})
		if err != nil {
			return
		}
		for _, sub := range ss.Subroutines() {
			if g := ss.GCPU(sub); g < 0 || g > 1.0000001 {
				t.Fatalf("gCPU(%q) = %v out of range", sub, g)
			}
		}
		if ss.Total() < 0 {
			t.Fatal("negative total")
		}
		// The fold is the SampleSet's GCPUAll, bit for bit.
		checkFold(t, p, ConvertOptions{})
		// Accepted profiles must re-marshal and re-parse cleanly (the
		// encoder only emits what the decoder accepts).
		if _, err := Parse(p.Marshal()); err != nil {
			t.Fatalf("re-parse of re-marshaled profile failed: %v", err)
		}
	})
}

// checkFold requires p.Fold(opts) to give exactly
// p.SampleSet(opts).GCPUAll(): the same subroutines, each value and the
// total equal with ==.
func checkFold(t *testing.T, p *Profile, opts ConvertOptions) {
	t.Helper()
	ss, err := p.SampleSet(opts)
	if err != nil {
		t.Fatal(err)
	}
	fold, total, err := p.Fold(opts)
	if err != nil {
		t.Fatalf("SampleSet succeeded but Fold failed: %v", err)
	}
	want := ss.GCPUAll()
	if total != ss.Total() {
		t.Fatalf("fold total %v, SampleSet total %v", total, ss.Total())
	}
	if len(fold) != len(want) {
		t.Fatalf("fold has %d subroutines, GCPUAll %d", len(fold), len(want))
	}
	seen := map[string]bool{}
	for _, g := range fold {
		w, ok := want[g.Subroutine]
		if !ok || seen[g.Subroutine] {
			t.Fatalf("fold subroutine %q: in GCPUAll %v, repeated %v", g.Subroutine, ok, seen[g.Subroutine])
		}
		seen[g.Subroutine] = true
		if g.Value != w {
			t.Fatalf("fold gCPU(%q) = %v, GCPUAll %v", g.Subroutine, g.Value, w)
		}
	}
}
