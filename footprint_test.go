package fbdetect

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"fbdetect/internal/fleet"
)

// TestFleetStorageFootprint pins the headline storage number: 36 hours
// of quantized fleet telemetry must fit the chunked store at no more than
// 2 bytes per point — the ceiling the bench gate also enforces — versus
// 8 bytes raw. Quantized gCPU series pack as scaled integers; the few
// unquantized service-level series (cpu, throughput) ride along at XOR
// cost and are included in the average.
func TestFleetStorageFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tree := fleet.Generate(rng, 60, 3)
	svc, err := fleet.NewService(fleet.Config{
		Name: "dense", Servers: 2000, Step: time.Minute,
		SamplesPerStep: 1e4, // 5 samples/server/step: a production profiler rate
		BaseCPU:        0.5, CPUNoise: 0.05,
		BaseThroughput: 1e4, Tree: tree, Seed: 3,
		QuantizeSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(time.Minute)
	start := time.Date(2024, 8, 1, 0, 0, 0, 0, time.UTC)
	if err := svc.Run(db, nil, start, start.Add(36*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ss := db.StorageStats()
	if ss.SealedChunks == 0 || ss.Points == 0 {
		t.Fatalf("degenerate store: %+v", ss)
	}
	bpp := ss.BytesPerPoint()
	t.Logf("storage: %d series, %d points, %d sealed chunks, %.3f bytes/point",
		ss.Series, ss.Points, ss.SealedChunks, bpp)
	if bpp > 2 {
		t.Errorf("fleet telemetry costs %.3f bytes/point, ceiling is 2", bpp)
	}

	// Every gcpu value must sit exactly on the 1e-4 grid (SamplesPerStep
	// 1e4): quantization differs from the unquantized value by at most
	// half a grid cell and never produces anything finer.
	for _, id := range db.Metrics("dense") {
		if _, _, metric := id.Parts(); metric != "gcpu" {
			continue // service-level series are intentionally unquantized
		}
		s, err := db.Full(id)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range s.Values {
			if math.Round(v*1e4)/1e4 != v {
				t.Fatalf("%s[%d] = %v is off the quantization grid", id, i, v)
			}
		}
	}
}
