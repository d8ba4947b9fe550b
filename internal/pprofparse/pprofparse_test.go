package pprofparse

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestParseRealProfile decodes the committed runtime/pprof CPU profile
// and checks the hog functions recorded by testdata/gen.go dominate its
// gCPU, i.e. a real Go profiler's output maps onto the paper's sample
// model without any translation step.
func TestParseRealProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	foundCPU := false
	for _, st := range p.SampleTypes {
		if st.Type == "cpu" && st.Unit == "nanoseconds" {
			foundCPU = true
		}
	}
	if !foundCPU {
		t.Fatalf("sample types %v lack cpu/nanoseconds", p.SampleTypes)
	}
	if len(p.Samples) == 0 {
		t.Fatal("no samples decoded")
	}
	if p.TimeNanos == 0 {
		t.Error("TimeNanos not decoded")
	}
	if p.Period == 0 {
		t.Error("Period not decoded")
	}

	ss, err := p.SampleSet(ConvertOptions{SampleType: "cpu"})
	if err != nil {
		t.Fatal(err)
	}
	if g := ss.GCPU("main.hogInner"); g < 0.5 {
		t.Errorf("gCPU(main.hogInner) = %v, want > 0.5 (subroutines: %v)", g, ss.Subroutines())
	}
	if g := ss.GCPU("main.hogOuter"); g < 0.5 {
		t.Errorf("gCPU(main.hogOuter) = %v, want > 0.5", g)
	}
	callers := ss.Callers("main.hogInner")
	if len(callers) == 0 || !contains(callers, "main.hogOuter") {
		t.Errorf("Callers(main.hogInner) = %v, want to include main.hogOuter", callers)
	}
	// gCPU is a fraction of total weight: every subroutine in [0, 1].
	for _, sub := range ss.Subroutines() {
		if g := ss.GCPU(sub); g < 0 || g > 1.0000001 {
			t.Errorf("gCPU(%q) = %v out of range", sub, g)
		}
	}
}

func contains(xs []string, v string) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// TestBuilderRoundTrip: Parse(Marshal(p)) must reproduce the same sample
// set, through both the raw and gzipped serializations.
func TestBuilderRoundTrip(t *testing.T) {
	b := NewBuilder("cpu", "nanoseconds")
	b.SetTimeNanos(1722470400e9)
	b.SetPeriod(10e6)
	b.Add([]string{"main.main", "app.Run", "app.(*Server).Handle"}, 70)
	b.Add([]string{"main.main", "app.Run", "pkg.encode"}, 20)
	b.Add([]string{"main.main", "runtime.gcBgMarkWorker"}, 10)
	orig := b.Profile()

	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"raw", orig.Marshal()},
		{"gzip", orig.MarshalGzip()},
	} {
		p, err := Parse(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.TimeNanos != orig.TimeNanos || p.Period != orig.Period {
			t.Errorf("%s: time/period = %d/%d, want %d/%d",
				tc.name, p.TimeNanos, p.Period, orig.TimeNanos, orig.Period)
		}
		if p.PeriodType != (ValueType{Type: "cpu", Unit: "nanoseconds"}) {
			t.Errorf("%s: period type = %v", tc.name, p.PeriodType)
		}
		got, err := p.SampleSet(ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := orig.SampleSet(ConvertOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Total() != want.Total() {
			t.Errorf("%s: total %v != %v", tc.name, got.Total(), want.Total())
		}
		for _, sub := range want.Subroutines() {
			if math.Abs(got.GCPU(sub)-want.GCPU(sub)) > 1e-12 {
				t.Errorf("%s: gCPU(%s) = %v, want %v", tc.name, sub, got.GCPU(sub), want.GCPU(sub))
			}
		}
		// Class extraction survives the trip: (*Server) receiver → class.
		if c := got.ClassOf("app.(*Server).Handle"); c != "app.Server" {
			t.Errorf("%s: class = %q, want app.Server", tc.name, c)
		}
	}
}

// TestMarshalDeterministic: equal profiles marshal to byte-equal output —
// the property committed golden profiles rely on.
func TestMarshalDeterministic(t *testing.T) {
	build := func() *Profile {
		b := NewBuilder("cpu", "nanoseconds")
		b.SetTimeNanos(123)
		b.Add([]string{"a", "b", "c"}, 5)
		b.Add([]string{"a", "d"}, 3)
		return b.Profile()
	}
	p1, p2 := build(), build()
	if !bytes.Equal(p1.Marshal(), p2.Marshal()) {
		t.Error("Marshal not deterministic")
	}
	if !bytes.Equal(p1.MarshalGzip(), p2.MarshalGzip()) {
		t.Error("MarshalGzip not deterministic")
	}
}

func TestNormalizeFrame(t *testing.T) {
	cases := []struct {
		in, sub, class string
	}{
		{"github.com/user/repo/pkg.(*T).Method", "pkg.(*T).Method", "pkg.T"},
		{"fbdetect/internal/tsdb.(*DB).Append", "tsdb.(*DB).Append", "tsdb.DB"},
		{"pkg.T.Method", "pkg.T.Method", "pkg.T"},
		{"pkg.Run.func1", "pkg.Run.func1", "pkg.Run"},
		{"main.main", "main.main", ""},
		{"runtime.mcall", "runtime.mcall", ""},
		{"pkg.fn", "pkg.fn", ""},
		{"pkg.run.func1", "pkg.run.func1", ""}, // unexported middle: ambiguous, no class
		{"example.com/m/v2/gen.Map[go.shape.int]", "gen.Map[go.shape.int]", ""},
		{"Cache::get", "Cache::get", "Cache"},
		{"plainsymbol", "plainsymbol", ""},
		{"github.com/x/y.F", "y.F", ""},
	}
	for _, c := range cases {
		f := NormalizeFrame(c.in)
		if f.Subroutine != c.sub || f.Class != c.class {
			t.Errorf("NormalizeFrame(%q) = {%q, %q}, want {%q, %q}",
				c.in, f.Subroutine, f.Class, c.sub, c.class)
		}
	}
}

// TestInlineExpansion: a location with multiple lines is an inlining
// record; the trace must expand it caller-first.
func TestInlineExpansion(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Locations: map[uint64]*Location{
			1: {ID: 1, Lines: []Line{{Function: "main.main"}}},
			2: {ID: 2, Lines: []Line{
				{Function: "pkg.inlinedLeaf"}, // innermost first, pprof order
				{Function: "pkg.physical"},
			}},
		},
		Samples: []Sample{{LocationIDs: []uint64{2, 1}, Values: []int64{10}}},
	}
	ss, err := p.SampleSet(ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samples := ss.Samples()
	if len(samples) != 1 {
		t.Fatalf("got %d samples", len(samples))
	}
	got := samples[0].Trace.String()
	want := "main.main->pkg.physical->pkg.inlinedLeaf"
	if got != want {
		t.Errorf("trace = %s, want %s", got, want)
	}
}

// TestAddressOnlyFramesStripped: locations without symbols vanish from
// the trace rather than polluting subroutine names with addresses.
func TestAddressOnlyFramesStripped(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{{Type: "samples", Unit: "count"}},
		Locations: map[uint64]*Location{
			1: {ID: 1, Lines: []Line{{Function: "main.main"}}},
			2: {ID: 2, Address: 0xdeadbeef}, // no symbol
			3: {ID: 3, Lines: []Line{{Function: "pkg.work"}}},
		},
		Samples: []Sample{{LocationIDs: []uint64{3, 2, 1}, Values: []int64{4}}},
	}
	ss, err := p.SampleSet(ConvertOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := ss.Samples()[0].Trace.String()
	if got != "main.main->pkg.work" {
		t.Errorf("trace = %s, want main.main->pkg.work", got)
	}
}

func TestMaxDepth(t *testing.T) {
	b := NewBuilder("samples", "count")
	b.Add([]string{"r", "a", "b", "c", "d"}, 1)
	ss, err := b.Profile().SampleSet(ConvertOptions{MaxDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.Samples()[0].Trace.String(); got != "r->a" {
		t.Errorf("trace = %s, want r->a", got)
	}
}

func TestSampleTypeSelection(t *testing.T) {
	p := &Profile{
		SampleTypes: []ValueType{
			{Type: "samples", Unit: "count"},
			{Type: "cpu", Unit: "nanoseconds"},
		},
		Locations: map[uint64]*Location{1: {ID: 1, Lines: []Line{{Function: "f"}}}},
		Samples:   []Sample{{LocationIDs: []uint64{1}, Values: []int64{3, 30_000_000}}},
	}
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"samples", 3}, {"cpu", 30_000_000}, {"", 30_000_000}, // default = last
	} {
		ss, err := p.SampleSet(ConvertOptions{SampleType: tc.name})
		if err != nil {
			t.Fatal(err)
		}
		if ss.Total() != tc.want {
			t.Errorf("sample type %q: total = %v, want %v", tc.name, ss.Total(), tc.want)
		}
	}
	if _, err := p.SampleSet(ConvertOptions{SampleType: "alloc_space"}); err == nil {
		t.Error("unknown sample type should error")
	}
}

func TestParseErrors(t *testing.T) {
	good := func() []byte {
		b := NewBuilder("cpu", "nanoseconds")
		b.Add([]string{"a", "b"}, 1)
		return b.Profile().Marshal()
	}()
	cases := map[string][]byte{
		"empty":           nil,
		"truncated":       good[:len(good)-3],
		"garbage":         {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		"bad gzip":        {0x1f, 0x8b, 0x00, 0x01, 0x02},
		"group wire type": {0x0b}, // field 1, deprecated start-group
		"field number 0":  {0x00, 0x00},
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestParseValidation: structurally valid protobuf with inconsistent
// cross-references must be rejected, not crash conversion later.
func TestParseValidation(t *testing.T) {
	// Sample referencing an unknown location.
	p := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "ns"}},
		Locations:   map[uint64]*Location{1: {ID: 1, Lines: []Line{{Function: "f"}}}},
		Samples:     []Sample{{LocationIDs: []uint64{99}, Values: []int64{1}}},
	}
	if _, err := Parse(p.Marshal()); err == nil || !strings.Contains(err.Error(), "unknown location") {
		t.Errorf("unknown location: err = %v", err)
	}
	// Sample with the wrong number of values.
	p = &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "ns"}},
		Locations:   map[uint64]*Location{1: {ID: 1, Lines: []Line{{Function: "f"}}}},
		Samples:     []Sample{{LocationIDs: []uint64{1}, Values: []int64{1, 2}}},
	}
	if _, err := Parse(p.Marshal()); err == nil || !strings.Contains(err.Error(), "values") {
		t.Errorf("value count: err = %v", err)
	}
}

// TestParseLimitBomb: a tiny gzip stream inflating past the cap must be
// refused — uploads reach this parser straight off the network.
func TestParseLimitBomb(t *testing.T) {
	big := make([]byte, 1<<20) // 1 MiB of zeros compresses to ~1 KiB
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(big)
	zw.Close()
	if _, err := ParseLimit(buf.Bytes(), 64<<10); err == nil || !strings.Contains(err.Error(), "inflates beyond") {
		t.Errorf("bomb: err = %v", err)
	}

	// The same 1 KiB upload with a trailer claiming 4 GiB (ISIZE
	// 0xffffffff): the inflate buffer is sized from that hint, so the
	// hint must not be trusted. Under the 64 KiB cap the answer is still
	// "inflates beyond"; under the default 64 MiB cap the whole MiB
	// inflates and the forged trailer fails the size check. Neither may
	// allocate anywhere near what the trailer claims.
	forged := bytes.Clone(buf.Bytes())
	binary.LittleEndian.PutUint32(forged[len(forged)-4:], 0xffffffff)
	for _, c := range []struct {
		limit    int64
		wantErr  string
		maxAlloc uint64
	}{
		{64 << 10, "inflates beyond", 1 << 20},
		{DefaultMaxDecompressed, "gunzip: gzip: invalid checksum", 8 << 20},
	} {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		_, err := ParseLimit(forged, c.limit)
		runtime.ReadMemStats(&ms1)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("forged trailer, cap %d: err = %v, want %q", c.limit, err, c.wantErr)
		}
		if got := ms1.TotalAlloc - ms0.TotalAlloc; got > c.maxAlloc {
			t.Errorf("forged trailer, cap %d: allocated %d bytes for a %d-byte upload, want ≤ %d",
				c.limit, got, len(forged), c.maxAlloc)
		}
	}
}

func TestDetectFormat(t *testing.T) {
	pprofBytes := func() []byte {
		b := NewBuilder("cpu", "nanoseconds")
		b.Add([]string{"a"}, 1)
		return b.Profile().Marshal()
	}()
	cases := []struct {
		data        []byte
		contentType string
		want        string
	}{
		{[]byte("main;render 5\n"), "", FormatFolded},
		{[]byte("# comment\nmain;a;b 2\n"), "", FormatFolded},
		{[]byte{0x1f, 0x8b, 0x08, 0x00}, "", FormatPprof},
		{pprofBytes, "", FormatPprof},
		{[]byte("anything"), "text/plain", FormatFolded},
		{[]byte("anything"), "application/octet-stream", FormatPprof},
		{[]byte("main;x 1"), "application/x-pprof", FormatPprof},
		{pprofBytes, "application/vnd.google.protobuf; proto=perftools.profiles.Profile", FormatPprof},
		{nil, "", FormatFolded},
	}
	for i, c := range cases {
		if got := DetectFormat(c.data, c.contentType); got != c.want {
			t.Errorf("case %d (%q): got %s, want %s", i, c.contentType, got, c.want)
		}
	}
}

func TestReadAnyBothFormats(t *testing.T) {
	b := NewBuilder("cpu", "nanoseconds")
	b.Add([]string{"main.main", "pkg.hot"}, 9)
	b.Add([]string{"main.main", "pkg.cold"}, 1)

	ss, format, err := ReadAny(b.Profile().MarshalGzip(), "")
	if err != nil || format != FormatPprof {
		t.Fatalf("pprof: format=%s err=%v", format, err)
	}
	if g := ss.GCPU("pkg.hot"); math.Abs(g-0.9) > 1e-9 {
		t.Errorf("pprof gCPU(pkg.hot) = %v", g)
	}

	ss, format, err = ReadAny([]byte("main.main;pkg.hot 9\nmain.main;pkg.cold 1\n"), "")
	if err != nil || format != FormatFolded {
		t.Fatalf("folded: format=%s err=%v", format, err)
	}
	if g := ss.GCPU("pkg.hot"); math.Abs(g-0.9) > 1e-9 {
		t.Errorf("folded gCPU(pkg.hot) = %v", g)
	}
}

// TestFoldMatchesSampleSet: Fold gives SampleSet's GCPUAll bit for bit
// on a real runtime/pprof profile (inlined and address-only frames), on
// recursion, skipped samples and MaxDepth, and with location IDs too
// sparse for the slice-indexed memo.
func TestFoldMatchesSampleSet(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	real, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	checkFold(t, real, ConvertOptions{})
	checkFold(t, real, ConvertOptions{SampleType: "samples", MaxDepth: 3})

	b := NewBuilder("cpu", "nanoseconds")
	b.Add([]string{"main.main", "pkg.rec", "pkg.rec", "pkg.leaf"}, 7)
	b.Add([]string{"main.main", "pkg.skipped"}, 0)
	b.Add([]string{"main.main", "app.(*S).Run", "pkg.leaf"}, 3)
	b.Add([]string{"main.main", "pkg.rec"}, 1)
	checkFold(t, b.Profile(), ConvertOptions{})
	checkFold(t, b.Profile(), ConvertOptions{MaxDepth: 2})

	sparse := &Profile{
		SampleTypes: []ValueType{{Type: "cpu", Unit: "nanoseconds"}},
		Locations: map[uint64]*Location{
			1 << 40: {ID: 1 << 40, Lines: []Line{{Function: "main.main"}}},
			7:       {ID: 7, Address: 0x10},
			1 << 50: {ID: 1 << 50, Lines: []Line{{Function: "a/pkg.leaf"}, {Function: ""}, {Function: "b/pkg.mid"}}},
		},
		Samples: []Sample{
			{LocationIDs: []uint64{1 << 50, 7, 1 << 40}, Values: []int64{5}},
			{LocationIDs: []uint64{7}, Values: []int64{9}}, // address-only: no trace
			{LocationIDs: []uint64{1 << 40}, Values: []int64{2}},
		},
	}
	checkFold(t, sparse, ConvertOptions{})
	fold, total, err := sparse.Fold(ConvertOptions{})
	if err != nil || total != 7 || len(fold) != 3 {
		t.Fatalf("sparse fold = %v, total %v, err %v; want 3 subroutines over 7", fold, total, err)
	}
}

// TestParseConcurrent: parses running at once share the pooled gunzip
// state; each must still decode its own upload.
func TestParseConcurrent(t *testing.T) {
	bodies := make([][]byte, 4)
	for i := range bodies {
		b := NewBuilder("cpu", "nanoseconds")
		b.Add([]string{"main.main", fmt.Sprintf("pkg.f%d", i)}, int64(i+1))
		bodies[i] = b.Profile().MarshalGzip()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(bodies)
				p, err := Parse(bodies[i])
				if err != nil {
					t.Error(err)
					return
				}
				fold, total, err := p.Fold(ConvertOptions{})
				if err != nil || total != float64(i+1) || len(fold) != 2 {
					t.Errorf("body %d: fold %v, total %v, err %v", i, fold, total, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
