// Package replay scores FBDetect's batch detector families against the
// Mozilla performance-alerts data artifact (arXiv:2503.16332) — the
// repository's first non-synthetic ground truth. The artifact pairs
// per-signature benchmark measurement series (one value per push a run
// landed on) with the alerts Mozilla's sheriffs triaged, each labeled as
// a valid regression, an improvement, or an invalid (noise) alert.
//
// The package parses the artifact's series (CSV or JSON), alerts (JSON
// or CSV), and optional push-log files into a Dataset, replays every
// series through each detector family (E-divisive means, CUSUM binary
// segmentation, DP normal-loss), attributes detected change points to
// candidate commits when a push log is present, and scores
// precision/recall/time-to-detect per family against the labeled alerts
// (REPLAY_report.json). A committed Baseline (REPLAY_baseline.json)
// turns the scores into a CI gate, mirroring the synthetic harness's
// EVAL gate one directory up.
package replay

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"fbdetect/internal/edivisive"
)

// Sample is one benchmark run: the push it measured and the value.
type Sample struct {
	Push  string    `json:"push_id"`
	Time  time.Time `json:"push_timestamp"`
	Value float64   `json:"value"`
}

// Series is one performance signature's commit-indexed history.
type Series struct {
	Signature string   `json:"signature_id"`
	Samples   []Sample `json:"samples"`
}

// Values returns the series values in run order.
func (s Series) Values() []float64 {
	out := make([]float64, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.Value
	}
	return out
}

// Pushes returns the per-sample push IDs in run order.
func (s Series) Pushes() []string {
	out := make([]string, len(s.Samples))
	for i, sm := range s.Samples {
		out[i] = sm.Push
	}
	return out
}

// Alert is one sheriff-triaged alert from the artifact. Valid
// regressions (IsRegression && Status valid) are the positive labels;
// improvements and invalid alerts are "ignorable": a change point
// matching one counts neither as a hit nor as a false positive, since
// the series really does step there.
type Alert struct {
	ID           int     `json:"id"`
	Signature    string  `json:"signature_id"`
	Push         string  `json:"push_id"`
	IsRegression bool    `json:"is_regression"`
	Status       string  `json:"status,omitempty"`
	AmountPct    float64 `json:"amount_pct,omitempty"`
}

// Valid reports whether the alert was sheriff-confirmed (the artifact's
// untriaged/invalid/backed-out statuses all mean "not a real
// regression"). An empty status counts as valid.
func (a Alert) Valid() bool {
	switch strings.ToLower(a.Status) {
	case "", "valid", "acknowledged", "confirmed", "fixed":
		return true
	}
	return false
}

// Dataset is one parsed replay corpus.
type Dataset struct {
	Name   string
	Series []Series // sorted by signature
	Alerts []Alert
	Pushes []edivisive.Push // optional push log for commit attribution
}

// SeriesBySignature returns the signature's series, or nil.
func (d *Dataset) SeriesBySignature(sig string) *Series {
	for i := range d.Series {
		if d.Series[i].Signature == sig {
			return &d.Series[i]
		}
	}
	return nil
}

// Samples returns the total sample count across series.
func (d *Dataset) Samples() int {
	n := 0
	for _, s := range d.Series {
		n += len(s.Samples)
	}
	return n
}

// ReadDataset loads a replay dataset directory:
//
//	dir/
//	  *.csv            series measurements (except alerts.csv)
//	  series*.json     series measurements, JSON form
//	  series/*.{csv,json}  same, in a subdirectory
//	  alerts.json|alerts.csv   labeled alerts
//	  pushes.json      optional push log (enables commit attribution)
func ReadDataset(dir string) (*Dataset, error) {
	ds := &Dataset{Name: filepath.Base(filepath.Clean(dir))}
	var seriesFiles []string
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case e.IsDir() && name == "series":
			subs, err := os.ReadDir(filepath.Join(dir, name))
			if err != nil {
				return nil, err
			}
			for _, s := range subs {
				if !s.IsDir() && (strings.HasSuffix(s.Name(), ".csv") || strings.HasSuffix(s.Name(), ".json")) {
					seriesFiles = append(seriesFiles, filepath.Join(dir, name, s.Name()))
				}
			}
		case name == "alerts.json" || name == "alerts.csv" || name == "pushes.json":
			// handled below
		case strings.HasSuffix(name, ".csv"), strings.HasPrefix(name, "series") && strings.HasSuffix(name, ".json"):
			seriesFiles = append(seriesFiles, filepath.Join(dir, name))
		}
	}
	if len(seriesFiles) == 0 {
		return nil, fmt.Errorf("replay: no series files in %s", dir)
	}
	sort.Strings(seriesFiles)
	merged := map[string]*Series{}
	for _, path := range seriesFiles {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		var series []Series
		if strings.HasSuffix(path, ".json") {
			series, err = ParseSeriesJSON(f)
		} else {
			series, err = ParseSeriesCSV(f)
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("replay: %s: %w", path, err)
		}
		for _, s := range series {
			if prev, ok := merged[s.Signature]; ok {
				prev.Samples = append(prev.Samples, s.Samples...)
			} else {
				cp := s
				merged[s.Signature] = &cp
			}
		}
	}
	for _, s := range merged {
		sortSamples(s.Samples)
		ds.Series = append(ds.Series, *s)
	}
	sort.Slice(ds.Series, func(i, j int) bool { return ds.Series[i].Signature < ds.Series[j].Signature })

	if f, err := os.Open(filepath.Join(dir, "alerts.json")); err == nil {
		ds.Alerts, err = ParseAlertsJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("replay: alerts.json: %w", err)
		}
	} else if f, err := os.Open(filepath.Join(dir, "alerts.csv")); err == nil {
		ds.Alerts, err = ParseAlertsCSV(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("replay: alerts.csv: %w", err)
		}
	}
	if f, err := os.Open(filepath.Join(dir, "pushes.json")); err == nil {
		ds.Pushes, err = ParsePushesJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("replay: pushes.json: %w", err)
		}
	}
	return ds, nil
}

func sortSamples(samples []Sample) {
	sort.SliceStable(samples, func(i, j int) bool {
		return samples[i].Time.Before(samples[j].Time)
	})
}

// maxRecords bounds parsed rows so a hostile input cannot balloon memory
// (the artifact's real files are far smaller per signature).
const maxRecords = 1 << 20

// ParseSeriesCSV parses measurement rows. The header must name at least
// push and value columns; recognized names (case-insensitive):
//
//	signature_id | signature          series key ("" allowed: single-series file)
//	push_id | revision | push         push the run measured
//	push_timestamp | timestamp | time unix seconds (int/float) or RFC3339
//	value                             the measurement (must be finite)
//
// Rows are grouped by signature and sorted by timestamp.
func ParseSeriesCSV(r io.Reader) ([]Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[strings.ToLower(strings.TrimSpace(h))] = i
	}
	pick := func(names ...string) int {
		for _, n := range names {
			if i, ok := col[n]; ok {
				return i
			}
		}
		return -1
	}
	sigCol := pick("signature_id", "signature")
	pushCol := pick("push_id", "revision", "push")
	timeCol := pick("push_timestamp", "timestamp", "time")
	valCol := pick("value")
	if pushCol < 0 || valCol < 0 {
		return nil, fmt.Errorf("header %v: need push_id and value columns", header)
	}

	bySig := map[string]*Series{}
	var order []string
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if len(rec) > 0 && len(rec) <= maxIndex(sigCol, pushCol, timeCol, valCol) {
			return nil, fmt.Errorf("line %d: %d fields, want at least %d", line, len(rec), maxIndex(sigCol, pushCol, timeCol, valCol)+1)
		}
		sig := ""
		if sigCol >= 0 {
			sig = strings.TrimSpace(rec[sigCol])
		}
		push := strings.TrimSpace(rec[pushCol])
		if push == "" {
			return nil, fmt.Errorf("line %d: empty push id", line)
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(rec[valCol]), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: value: %w", line, err)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("line %d: non-finite value", line)
		}
		var ts time.Time
		if timeCol >= 0 {
			ts, err = parseTimestamp(strings.TrimSpace(rec[timeCol]))
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
		}
		s, ok := bySig[sig]
		if !ok {
			s = &Series{Signature: sig}
			bySig[sig] = s
			order = append(order, sig)
			if len(order) > maxRecords {
				return nil, fmt.Errorf("too many signatures")
			}
		}
		if len(s.Samples) >= maxRecords {
			return nil, fmt.Errorf("signature %q: too many samples", sig)
		}
		s.Samples = append(s.Samples, Sample{Push: push, Time: ts, Value: val})
	}
	out := make([]Series, 0, len(order))
	for _, sig := range order {
		s := bySig[sig]
		sortSamples(s.Samples)
		out = append(out, *s)
	}
	return out, nil
}

func maxIndex(idx ...int) int {
	m := 0
	for _, i := range idx {
		if i > m {
			m = i
		}
	}
	return m
}

// parseTimestamp accepts unix seconds (integer or fractional) or
// RFC3339.
func parseTimestamp(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		if math.IsNaN(secs) || math.IsInf(secs, 0) || math.Abs(secs) > 1e15 {
			return time.Time{}, fmt.Errorf("timestamp %q out of range", s)
		}
		sec := int64(secs)
		nsec := int64((secs - float64(sec)) * 1e9)
		return time.Unix(sec, nsec).UTC(), nil
	}
	t, err := time.Parse(time.RFC3339, s)
	if err != nil {
		return time.Time{}, fmt.Errorf("timestamp %q: want unix seconds or RFC3339", s)
	}
	return t.UTC(), nil
}

// flexID decodes a JSON string or number into its string form — the
// artifact uses numeric signature/push ids in some exports and string
// revisions in others. JSON null (or an absent field) leaves it empty.
type flexID string

func (f *flexID) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		*f = flexID(s)
		return nil
	}
	var n json.Number
	if err := json.Unmarshal(data, &n); err != nil {
		return err
	}
	*f = flexID(n.String())
	return nil
}

func (f flexID) String() string { return string(f) }

// jsonSample is the JSON measurement row shape (series*.json files).
type jsonSample struct {
	Signature flexID   `json:"signature_id"`
	Push      flexID   `json:"push_id"`
	Timestamp flexID   `json:"push_timestamp"`
	Value     *float64 `json:"value"`
}

// ParseSeriesJSON parses measurements as a JSON array of rows (or a
// {"measurements": [...]} wrapper) with the same fields as the CSV form.
func ParseSeriesJSON(r io.Reader) ([]Series, error) {
	data, err := io.ReadAll(io.LimitReader(r, 64<<20))
	if err != nil {
		return nil, err
	}
	var rows []jsonSample
	if err := json.Unmarshal(data, &rows); err != nil {
		var wrapper struct {
			Measurements []jsonSample `json:"measurements"`
		}
		if werr := json.Unmarshal(data, &wrapper); werr != nil || wrapper.Measurements == nil {
			return nil, fmt.Errorf("want a JSON array of measurements: %w", err)
		}
		rows = wrapper.Measurements
	}
	if len(rows) > maxRecords {
		return nil, fmt.Errorf("too many measurements")
	}
	bySig := map[string]*Series{}
	var order []string
	for i, row := range rows {
		if row.Value == nil {
			return nil, fmt.Errorf("measurement %d: missing value", i)
		}
		if math.IsNaN(*row.Value) || math.IsInf(*row.Value, 0) {
			return nil, fmt.Errorf("measurement %d: non-finite value", i)
		}
		push := row.Push.String()
		if push == "" || push == "null" {
			return nil, fmt.Errorf("measurement %d: missing push_id", i)
		}
		var ts time.Time
		if t := row.Timestamp.String(); t != "" && t != "null" {
			ts, err = parseTimestamp(t)
			if err != nil {
				return nil, fmt.Errorf("measurement %d: %w", i, err)
			}
		}
		sig := row.Signature.String()
		if sig == "null" {
			sig = ""
		}
		s, ok := bySig[sig]
		if !ok {
			s = &Series{Signature: sig}
			bySig[sig] = s
			order = append(order, sig)
		}
		s.Samples = append(s.Samples, Sample{Push: push, Time: ts, Value: *row.Value})
	}
	out := make([]Series, 0, len(order))
	for _, sig := range order {
		s := bySig[sig]
		sortSamples(s.Samples)
		out = append(out, *s)
	}
	return out, nil
}

// jsonAlert mirrors the artifact's alert records; numeric and string ids
// both appear in the wild.
type jsonAlert struct {
	ID           flexID  `json:"id"`
	Signature    flexID  `json:"signature_id"`
	Push         flexID  `json:"push_id"`
	IsRegression *bool   `json:"is_regression"`
	Status       string  `json:"status"`
	AmountPct    float64 `json:"amount_pct"`
}

func (a jsonAlert) toAlert(i int) (Alert, error) {
	out := Alert{
		Signature: a.Signature.String(),
		Push:      a.Push.String(),
		Status:    a.Status,
		AmountPct: a.AmountPct,
	}
	if id, err := strconv.Atoi(a.ID.String()); err == nil {
		out.ID = id
	}
	if out.Signature == "" || out.Signature == "null" {
		return out, fmt.Errorf("alert %d: missing signature_id", i)
	}
	if out.Push == "" || out.Push == "null" {
		return out, fmt.Errorf("alert %d: missing push_id", i)
	}
	if a.IsRegression != nil {
		out.IsRegression = *a.IsRegression
	}
	return out, nil
}

// ParseAlertsJSON parses the labeled alerts: a JSON array of alert
// objects or an {"alerts": [...]} wrapper.
func ParseAlertsJSON(r io.Reader) ([]Alert, error) {
	data, err := io.ReadAll(io.LimitReader(r, 64<<20))
	if err != nil {
		return nil, err
	}
	var rows []jsonAlert
	if err := json.Unmarshal(data, &rows); err != nil {
		var wrapper struct {
			Alerts []jsonAlert `json:"alerts"`
		}
		if werr := json.Unmarshal(data, &wrapper); werr != nil || wrapper.Alerts == nil {
			return nil, fmt.Errorf("want a JSON array of alerts: %w", err)
		}
		rows = wrapper.Alerts
	}
	if len(rows) > maxRecords {
		return nil, fmt.Errorf("too many alerts")
	}
	out := make([]Alert, 0, len(rows))
	for i, row := range rows {
		a, err := row.toAlert(i)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ParseAlertsCSV parses alerts from CSV with columns id, signature_id,
// push_id, is_regression, status, amount_pct (header required; order
// free).
func ParseAlertsCSV(r io.Reader) ([]Alert, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	col := map[string]int{}
	for i, h := range header {
		col[strings.ToLower(strings.TrimSpace(h))] = i
	}
	get := func(rec []string, name string) string {
		i, ok := col[name]
		if !ok || i >= len(rec) {
			return ""
		}
		return strings.TrimSpace(rec[i])
	}
	sigIdx, okSig := col["signature_id"]
	pushIdx, okPush := col["push_id"]
	if !okSig || !okPush {
		return nil, fmt.Errorf("header %v: need signature_id and push_id columns", header)
	}
	_ = sigIdx
	_ = pushIdx
	var out []Alert
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		a := Alert{
			Signature: get(rec, "signature_id"),
			Push:      get(rec, "push_id"),
			Status:    get(rec, "status"),
		}
		if a.Signature == "" || a.Push == "" {
			return nil, fmt.Errorf("line %d: missing signature_id or push_id", line)
		}
		if v := get(rec, "id"); v != "" {
			if a.ID, err = strconv.Atoi(v); err != nil {
				return nil, fmt.Errorf("line %d: id: %w", line, err)
			}
		}
		switch strings.ToLower(get(rec, "is_regression")) {
		case "true", "1", "t", "yes":
			a.IsRegression = true
		}
		if v := get(rec, "amount_pct"); v != "" {
			if a.AmountPct, err = strconv.ParseFloat(v, 64); err != nil {
				return nil, fmt.Errorf("line %d: amount_pct: %w", line, err)
			}
		}
		if len(out) >= maxRecords {
			return nil, fmt.Errorf("too many alerts")
		}
		out = append(out, a)
	}
	return out, nil
}

// jsonPush mirrors pushes.json records.
type jsonPush struct {
	ID        flexID       `json:"push_id"`
	AltID     flexID       `json:"id"`
	Timestamp flexID       `json:"push_timestamp"`
	Commits   []jsonCommit `json:"commits"`
}

type jsonCommit struct {
	Revision string   `json:"revision"`
	AltID    string   `json:"id"`
	Author   string   `json:"author"`
	Desc     string   `json:"desc"`
	Title    string   `json:"title"`
	Merge    bool     `json:"merge"`
	Merged   []string `json:"merged"`
}

// ParsePushesJSON parses the push log: a JSON array of pushes or a
// {"pushes": [...]} wrapper, each push carrying its commits in
// application order.
func ParsePushesJSON(r io.Reader) ([]edivisive.Push, error) {
	data, err := io.ReadAll(io.LimitReader(r, 64<<20))
	if err != nil {
		return nil, err
	}
	var rows []jsonPush
	if err := json.Unmarshal(data, &rows); err != nil {
		var wrapper struct {
			Pushes []jsonPush `json:"pushes"`
		}
		if werr := json.Unmarshal(data, &wrapper); werr != nil || wrapper.Pushes == nil {
			return nil, fmt.Errorf("want a JSON array of pushes: %w", err)
		}
		rows = wrapper.Pushes
	}
	if len(rows) > maxRecords {
		return nil, fmt.Errorf("too many pushes")
	}
	out := make([]edivisive.Push, 0, len(rows))
	seen := map[string]bool{}
	for i, row := range rows {
		id := row.ID.String()
		if id == "" || id == "null" {
			id = row.AltID.String()
		}
		if id == "" || id == "null" {
			return nil, fmt.Errorf("push %d: missing push_id", i)
		}
		if seen[id] {
			return nil, fmt.Errorf("push %d: duplicate push_id %q", i, id)
		}
		seen[id] = true
		p := edivisive.Push{ID: id}
		if t := row.Timestamp.String(); t != "" && t != "null" {
			ts, err := parseTimestamp(t)
			if err != nil {
				return nil, fmt.Errorf("push %d: %w", i, err)
			}
			p.Time = ts
		}
		for j, c := range row.Commits {
			rev := c.Revision
			if rev == "" {
				rev = c.AltID
			}
			if rev == "" {
				return nil, fmt.Errorf("push %d commit %d: missing revision", i, j)
			}
			title := c.Title
			if title == "" {
				title = c.Desc
			}
			p.Commits = append(p.Commits, edivisive.Commit{
				ID: rev, Author: c.Author, Title: title,
				Merge: c.Merge || len(c.Merged) > 0, Merged: c.Merged,
			})
		}
		out = append(out, p)
	}
	return out, nil
}
