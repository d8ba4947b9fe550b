package fleet

import (
	"math"
	"testing"
	"time"

	"fbdetect/internal/stats"
	"fbdetect/internal/tsdb"
)

// metaTree: handler fans out to vip and free processing; vip frames are
// annotated.
func metaTree(t *testing.T) *Tree {
	t.Helper()
	root := &Node{Name: "main", SelfWeight: 0, Children: []*Node{
		{Name: "handler", SelfWeight: 10, Children: []*Node{
			{Name: "process_vip", Metadata: "user:vip", SelfWeight: 10, Children: []*Node{
				{Name: "vip_extras", SelfWeight: 5},
			}},
			{Name: "process_free", Metadata: "user:free", SelfWeight: 60},
		}},
		{Name: "misc", SelfWeight: 15},
	}}
	tree, err := NewTree(root)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestGCPUMetadata(t *testing.T) {
	tree := metaTree(t)
	// vip: process_vip(10) + vip_extras(5, covered by ancestor) = 15/100.
	if got := tree.GCPUMetadata("user:vip"); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("gCPU(user:vip) = %v, want 0.15", got)
	}
	if got := tree.GCPUMetadata("user:free"); math.Abs(got-0.60) > 1e-9 {
		t.Errorf("gCPU(user:free) = %v, want 0.6", got)
	}
	if tree.GCPUMetadata("nope") != 0 || tree.GCPUMetadata("") != 0 {
		t.Error("unknown/empty metadata should be 0")
	}
}

func TestExpectedSamplesCarryMetadata(t *testing.T) {
	tree := metaTree(t)
	ss := tree.ExpectedSamples(1000)
	if got := ss.MetadataOf("process_vip"); got != "user:vip" {
		t.Errorf("MetadataOf = %q", got)
	}
	if got := ss.GCPUMetadata("user:vip"); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("sample gCPU(user:vip) = %v, want 0.15", got)
	}
	// Clone preserves metadata.
	if got := tree.Clone().GCPUMetadata("user:vip"); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("clone lost metadata: %v", got)
	}
}

func TestMetadataAnnotatedRegressionDetectable(t *testing.T) {
	// A regression confined to vip processing: the vip metadata series
	// moves sharply while the (much larger) handler series moves little —
	// the paper's motivation for metadata-annotated detection.
	tree := metaTree(t)
	cfg := serviceConfig(t, tree)
	cfg.EmitMetadata = []string{"user:vip"}
	cfg.EmitSubroutines = []string{"handler"}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.ScheduleChange(ScheduledChange{
		At:     t0.Add(time.Hour),
		Effect: func(tr *Tree) error { return tr.ScaleSelfWeight("vip_extras", 3) },
	})
	db := tsdb.New(time.Minute)
	if err := svc.Run(db, nil, t0, t0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	vip, err := db.Full(tsdb.ID("svc", "meta:user:vip", "gcpu"))
	if err != nil {
		t.Fatal(err)
	}
	before := stats.Mean(vip.Values[:60])
	after := stats.Mean(vip.Values[60:])
	relVIP := (after - before) / before
	if relVIP < 0.5 {
		t.Errorf("vip relative change = %v, want > 0.5", relVIP)
	}
	handler, _ := db.Full(tsdb.ID("svc", "handler", "gcpu"))
	hb := stats.Mean(handler.Values[:60])
	ha := stats.Mean(handler.Values[60:])
	relHandler := math.Abs(ha-hb) / hb
	if relHandler > relVIP/3 {
		t.Errorf("handler moved %v, should be much smaller than vip's %v", relHandler, relVIP)
	}
}
