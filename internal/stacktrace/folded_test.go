package stacktrace

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadFolded(t *testing.T) {
	input := `
# comment
main;render;encode 8
main;fetch 12
main;render;layout
`
	ss, err := ReadFolded(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Total() != 21 { // 8 + 12 + 1 (default)
		t.Errorf("total = %v", ss.Total())
	}
	if got := ss.GCPU("render"); !almostEqual(got, 9.0/21, 1e-9) {
		t.Errorf("gCPU(render) = %v", got)
	}
	if got := ss.GCPU("main"); !almostEqual(got, 1, 1e-9) {
		t.Errorf("gCPU(main) = %v", got)
	}
}

func TestReadFoldedErrors(t *testing.T) {
	cases := []string{
		"main;render 0",    // zero count
		"main;render -3",   // negative count
		"main;;render 2",   // empty frame
		";leading;empty 1", // empty first frame
	}
	for _, in := range cases {
		if _, err := ReadFolded(strings.NewReader(in)); err == nil {
			t.Errorf("input %q should fail", in)
		}
	}
}

func TestReadFoldedFrameWithSpaces(t *testing.T) {
	// A frame containing spaces with no trailing count.
	ss, err := ReadFolded(strings.NewReader("main;operator new"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.GCPU("operator new"); got != 1 {
		t.Errorf("space-frame gCPU = %v, want 1", got)
	}
}

func TestFoldedRoundTrip(t *testing.T) {
	orig := NewSampleSet()
	orig.AddTraceString("a->b->c", 5)
	orig.AddTraceString("a->d", 2.5)
	var buf bytes.Buffer
	if err := WriteFolded(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFolded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Total() != orig.Total() {
		t.Errorf("total: %v vs %v", back.Total(), orig.Total())
	}
	for _, sub := range orig.Subroutines() {
		if !almostEqual(back.GCPU(sub), orig.GCPU(sub), 1e-9) {
			t.Errorf("gCPU(%s) changed in round trip", sub)
		}
	}
}

func TestReadFoldedClassExtraction(t *testing.T) {
	ss, err := ReadFolded(strings.NewReader("main;Cache::get 3"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.ClassOf("Cache::get"); got != "Cache" {
		t.Errorf("class = %q", got)
	}
}

func TestReadFoldedEmptyInput(t *testing.T) {
	ss, err := ReadFolded(strings.NewReader(""))
	if err != nil || ss.Len() != 0 {
		t.Errorf("empty input: %v, %v", ss, err)
	}
}

// TestReadFoldedSpacesThenNumericFinalFrame: a frame name containing
// spaces followed by a purely numeric final frame. The numeric token
// after the last separator is the count; the spaced frame survives, and
// a numeric frame with no following count stays a frame.
func TestReadFoldedSpacesThenNumericFinalFrame(t *testing.T) {
	ss, err := ReadFolded(strings.NewReader("main;operator new;42 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := ss.Total(); got != 7 {
		t.Errorf("total = %v, want 7 (final token is the count)", got)
	}
	if g := ss.GCPU("42"); g != 1 {
		t.Errorf("gCPU(42) = %v, want 1 (numeric frame kept)", g)
	}
	if g := ss.GCPU("operator new"); g != 1 {
		t.Errorf("gCPU(operator new) = %v, want 1", g)
	}

	// No separator before the numeric leaf: it is a frame, weight 1.
	ss, err = ReadFolded(strings.NewReader("main;1234\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Total() != 1 || ss.GCPU("1234") != 1 {
		t.Errorf("numeric leaf without count: total=%v gCPU(1234)=%v", ss.Total(), ss.GCPU("1234"))
	}
}

// TestReadFoldedTabSeparatedCount: perf script post-processors often emit
// "stack\tcount".
func TestReadFoldedTabSeparatedCount(t *testing.T) {
	ss, err := ReadFolded(strings.NewReader("main;render\t12\nmain;fetch\t 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Total() != 20 {
		t.Errorf("total = %v, want 20", ss.Total())
	}
	if g := ss.GCPU("render"); !almostEqual(g, 12.0/20, 1e-9) {
		t.Errorf("gCPU(render) = %v", g)
	}
}

// TestReadFoldedCRLF: Windows-recorded profiles parse identically.
func TestReadFoldedCRLF(t *testing.T) {
	ss, err := ReadFolded(strings.NewReader("main;render 5\r\nmain;fetch 3\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ss.Total() != 8 {
		t.Errorf("total = %v, want 8", ss.Total())
	}
	if g := ss.GCPU("fetch"); !almostEqual(g, 3.0/8, 1e-9) {
		t.Errorf("gCPU(fetch) = %v", g)
	}
}

// TestReadFoldedLineCap: a line over the 1 MiB cap fails with a clear,
// numbered error instead of bufio's opaque "token too long", and a line
// just under it parses.
func TestReadFoldedLineCap(t *testing.T) {
	long := "ok 1\n" + strings.Repeat("x", maxLineBytes) + ";leaf 2\n"
	_, err := ReadFolded(strings.NewReader(long))
	if err == nil {
		t.Fatal("expected line-too-long error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "line 2") || !strings.Contains(msg, "too long") || !strings.Contains(msg, "1048576") {
		t.Errorf("error %q should name line 2 and the 1048576-byte limit", msg)
	}
	if strings.Contains(msg, "token too long") {
		t.Errorf("error %q leaks bufio internals", msg)
	}
	// A line that fits the cap, newline included, parses.
	fits := "ok 1\n" + strings.Repeat("x", maxLineBytes-len(";leaf 2\n")) + ";leaf 2\n"
	ss, err := ReadFolded(strings.NewReader(fits))
	if err != nil {
		t.Fatalf("line at the cap: %v", err)
	}
	if ss.Total() != 3 {
		t.Errorf("line at the cap: total = %v, want 3", ss.Total())
	}
}
