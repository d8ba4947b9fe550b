package pprofparse

import (
	"bytes"
	"fmt"
	"strings"
	"unicode/utf8"

	"fbdetect/internal/stacktrace"
)

// Profile wire formats ReadAny understands.
const (
	FormatPprof  = "pprof"
	FormatFolded = "folded"
)

// DetectFormat classifies raw upload bytes as pprof protobuf or folded
// text. contentType, when non-empty, decides directly ("text/*" and the
// collapsed-stack types are folded; protobuf/octet-stream types are
// pprof); otherwise the bytes are sniffed — a gzip magic number or any
// non-text byte in the head means pprof, since folded files are pure
// printable text.
func DetectFormat(data []byte, contentType string) string {
	if ct := strings.ToLower(strings.TrimSpace(strings.Split(contentType, ";")[0])); ct != "" {
		switch {
		case strings.HasPrefix(ct, "text/"),
			ct == "application/x-collapsed-stacks",
			ct == "application/x-folded":
			return FormatFolded
		case ct == "application/octet-stream",
			ct == "application/x-pprof",
			ct == "application/vnd.google.protobuf",
			ct == "application/x-protobuf",
			ct == "application/gzip":
			return FormatPprof
		}
	}
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		return FormatPprof
	}
	head := data
	if len(head) > 512 {
		head = head[:512]
	}
	if len(head) == 0 {
		return FormatFolded
	}
	if !utf8.Valid(head) && len(head) >= 512 {
		// A 512-byte prefix may split a rune; only full heads get the
		// strict check. Shorter inputs fall through to the byte scan.
		return FormatPprof
	}
	for _, b := range head {
		if b < 0x20 && b != '\n' && b != '\r' && b != '\t' {
			return FormatPprof
		}
	}
	return FormatFolded
}

// ReadAny parses profile bytes in either wire format into a SampleSet,
// reporting which format was detected. A pprof profile converts at
// ConvertOptions' zero value.
func ReadAny(data []byte, contentType string) (*stacktrace.SampleSet, string, error) {
	switch format := DetectFormat(data, contentType); format {
	case FormatPprof:
		p, err := Parse(data)
		if err != nil {
			return nil, format, err
		}
		ss, err := p.SampleSet(ConvertOptions{})
		return ss, format, err
	default:
		ss, err := stacktrace.ReadFolded(bytes.NewReader(data))
		if err != nil {
			return nil, FormatFolded, fmt.Errorf("pprofparse: not a pprof profile and folded parse failed: %w", err)
		}
		return ss, FormatFolded, nil
	}
}
