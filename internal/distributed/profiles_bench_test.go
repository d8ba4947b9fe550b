package distributed

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fbdetect/internal/pprofparse"
	"fbdetect/internal/tsdb"
)

// benchShapedProfile builds a gzipped pprof upload shaped like the
// ingest_pprof benchmark workload's: 300 functions on a random call tree
// up to 40 frames deep, one sample per function weighted by its noisy
// self cost (two thirds hot, log-normal; the rest cold). shape seeds the
// tree and the self costs, noise the sampling noise, so uploads of one
// shape are one service's profiles over time.
func benchShapedProfile(shape, noise int64) []byte {
	const funcs, maxDepth, samples = 300, 40, 1e6
	rng := rand.New(rand.NewSource(shape))
	hot, inner := funcs*2/3, funcs*2/3-2
	names := make([]string, funcs)
	parent := make([]int, funcs)
	depth := make([]int, funcs)
	names[0], parent[0], depth[0] = "pkg00.fn000", -1, 1
	for i := 1; i < funcs; i++ {
		names[i] = fmt.Sprintf("pkg%02d.fn%03d", i%17, i)
		par := rng.Intn(min(i, inner))
		if i < inner && rng.Intn(2) == 0 {
			par = i - 1
		}
		if depth[par] >= maxDepth {
			par = 0
		}
		parent[i], depth[i] = par, depth[par]+1
	}
	self := make([]float64, funcs)
	for i := range self {
		self[i] = 1 + float64(rng.Intn(3))
		if i < hot {
			self[i] = math.Exp(rng.NormFloat64()) * 0.9 * samples / float64(hot)
		}
	}
	rng = rand.New(rand.NewSource(noise))
	b := pprofparse.NewBuilder("cpu", "nanoseconds")
	b.SetPeriod(10e6)
	for i, w := range self {
		st := make([]string, depth[i])
		for n, d := i, depth[i]-1; n >= 0; n, d = parent[n], d-1 {
			st[d] = names[n]
		}
		n := int64(math.Round(w + math.Sqrt(w)*rng.NormFloat64()))
		b.Add(st, max(1, n)*10e6)
	}
	return b.Profile().MarshalGzip()
}

// BenchmarkProfilesDecode times the /profiles decoder on a bench-shaped
// upload: gunzip, wire decode, the fold into gCPU and the top-K points.
func BenchmarkProfilesDecode(bm *testing.B) {
	body := benchShapedProfile(1, 1)
	h := NewProfilesHandler(nil, ProfilesOptions{})
	bm.SetBytes(int64(len(body)))
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if _, rej := h.decode(body, "", "svc", t0); rej != nil {
			bm.Fatal(rej.msg)
		}
	}
}

// BenchmarkProfileSeriesAppend times one bench-shaped upload a minute
// through the /profiles handler into a tsdb.DB, and reports the store's
// bytes/point once every series has sealed ten chunks: the storage cost
// of profile-shaped gCPU series, which the bench-gate ceiling holds.
func BenchmarkProfileSeriesAppend(bm *testing.B) {
	const minutes = 10 * tsdb.DefaultChunkSize
	bodies := make([][]byte, 16)
	for i := range bodies {
		bodies[i] = benchShapedProfile(1, int64(i+1))
	}
	db := tsdb.New(time.Minute)
	h := NewProfilesHandler(db, ProfilesOptions{})
	upload := func(i int) {
		req := httptest.NewRequest(http.MethodPost, "/profiles?service=svc&time="+
			t0.Add(time.Duration(i)*time.Minute).Format(time.RFC3339),
			bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			bm.Fatalf("upload %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		upload(i)
	}
	bm.StopTimer()
	for i := bm.N; i < minutes; i++ {
		upload(i)
	}
	bm.ReportMetric(db.StorageStats().BytesPerPoint(), "bytes/point")
}

// TestProfilesDecodeAllocs holds the decoder's allocation count on a
// bench-shaped upload under a ceiling: counts repeat exactly from run to
// run, unlike timings on a shared host.
func TestProfilesDecodeAllocs(t *testing.T) {
	// 116 measured (316 before series IDs were interned, 4 976 before
	// the fold), plus 10%.
	const ceiling = 128
	body := benchShapedProfile(1, 1)
	h := NewProfilesHandler(nil, ProfilesOptions{})
	b, rej := h.decode(body, "", "svc", t0)
	if rej != nil {
		t.Fatal(rej.msg)
	}
	if len(b.pts) != 200 {
		t.Fatalf("%d points, want the top-K 200", len(b.pts))
	}
	allocs := testing.AllocsPerRun(20, func() { h.decode(body, "", "svc", t0) })
	t.Logf("decode: %.0f allocs per %d-byte upload", allocs, len(body))
	if allocs > ceiling {
		t.Fatalf("decode allocates %.0f times per upload, ceiling %d", allocs, ceiling)
	}
}
