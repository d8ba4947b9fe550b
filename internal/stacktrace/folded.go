package stacktrace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxLineBytes caps one folded line (1 MiB — thousands of frames, far
// beyond any real stack). Longer lines fail with a "folded line N too
// long" error naming the offending line instead of bufio's opaque "token
// too long".
const maxLineBytes = 1 << 20

// ReadFolded parses collapsed ("folded") stack traces — the interchange
// format emitted by perf/pprof flame-graph tooling and by this
// repository's PyPerf sampler — and accumulates them into a SampleSet.
// Each line is "frame;frame;frame count" (root first); the count may be
// separated by spaces or tabs and a missing count defaults to 1. CRLF
// line endings are accepted. Blank lines and lines starting with '#' are
// skipped.
//
// This is the integration point for feeding real profiler output (e.g.
// from pprof or perf script | stackcollapse) into FBDetect.
func ReadFolded(r io.Reader) (*SampleSet, error) {
	ss := NewSampleSet()
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		stack, weight, err := parseFoldedLine(line)
		if err != nil {
			return nil, fmt.Errorf("stacktrace: line %d: %w", lineNo, err)
		}
		ss.Add(stack, weight)
	}
	if err := scanner.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("stacktrace: folded line %d too long (limit %d bytes)",
				lineNo+1, maxLineBytes)
		}
		return nil, fmt.Errorf("stacktrace: reading folded stacks: %w", err)
	}
	return ss, nil
}

func parseFoldedLine(line string) (Trace, float64, error) {
	frames := line
	weight := 1.0
	// The count, if present, is the final space- or tab-separated token
	// and must be numeric; frame names may contain spaces otherwise (a
	// final numeric frame with no separator-delimited count stays a
	// frame).
	if i := strings.LastIndexAny(line, " \t"); i >= 0 {
		if w, err := strconv.ParseFloat(strings.TrimSpace(line[i+1:]), 64); err == nil {
			weight = w
			frames = strings.TrimRight(line[:i], " \t")
		}
	}
	if weight <= 0 {
		return nil, 0, fmt.Errorf("non-positive sample count %v", weight)
	}
	parts := strings.Split(frames, ";")
	t := make(Trace, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, 0, fmt.Errorf("empty frame in %q", frames)
		}
		t = append(t, NewFrame(p))
	}
	if len(t) == 0 {
		return nil, 0, fmt.Errorf("no frames in %q", line)
	}
	return t, weight, nil
}

// WriteFolded renders the sample set in folded form, one line per
// distinct trace, suitable for flame-graph tooling. Weights print without
// trailing zeros.
func WriteFolded(w io.Writer, ss *SampleSet) error {
	for _, s := range ss.Samples() {
		names := make([]string, len(s.Trace))
		for i, f := range s.Trace {
			names[i] = f.Subroutine
		}
		if _, err := fmt.Fprintf(w, "%s %s\n",
			strings.Join(names, ";"), strconv.FormatFloat(s.Weight, 'f', -1, 64)); err != nil {
			return err
		}
	}
	return nil
}
