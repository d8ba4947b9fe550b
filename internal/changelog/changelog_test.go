package changelog

import (
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)

func mkChange(id string, deployedAt time.Time, subs ...string) *Change {
	return &Change{
		ID:          id,
		Service:     "svc",
		Title:       "change " + id,
		Subroutines: subs,
		DeployedAt:  deployedAt,
	}
}

func TestRecordKeepsOrder(t *testing.T) {
	var l Log
	l.Record(mkChange("c2", t0.Add(2*time.Hour)))
	l.Record(mkChange("c1", t0.Add(1*time.Hour)))
	l.Record(mkChange("c3", t0.Add(3*time.Hour)))
	got := l.Between("", t0, t0.Add(24*time.Hour))
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].ID != "c1" || got[1].ID != "c2" || got[2].ID != "c3" {
		t.Errorf("order = %s %s %s", got[0].ID, got[1].ID, got[2].ID)
	}
}

func TestBetweenBoundaries(t *testing.T) {
	var l Log
	l.Record(mkChange("a", t0))
	l.Record(mkChange("b", t0.Add(time.Hour)))
	// [from, to): includes from, excludes to.
	got := l.Between("", t0, t0.Add(time.Hour))
	if len(got) != 1 || got[0].ID != "a" {
		t.Errorf("boundary handling: %v", got)
	}
}

func TestBetweenServiceFilter(t *testing.T) {
	var l Log
	c := mkChange("x", t0)
	c.Service = "other"
	l.Record(c)
	l.Record(mkChange("y", t0))
	if got := l.Between("svc", t0.Add(-time.Hour), t0.Add(time.Hour)); len(got) != 1 || got[0].ID != "y" {
		t.Errorf("filter: %v", got)
	}
	if got := l.Between("", t0.Add(-time.Hour), t0.Add(time.Hour)); len(got) != 2 {
		t.Errorf("no filter: %v", got)
	}
}

func TestTouchingSubroutine(t *testing.T) {
	var l Log
	l.Record(mkChange("a", t0, "foo", "bar"))
	l.Record(mkChange("b", t0.Add(time.Minute), "baz"))
	got := l.TouchingSubroutine("svc", "bar", t0.Add(-time.Hour), t0.Add(time.Hour))
	if len(got) != 1 || got[0].ID != "a" {
		t.Errorf("TouchingSubroutine = %v", got)
	}
	if got := l.TouchingSubroutine("svc", "nope", t0.Add(-time.Hour), t0.Add(time.Hour)); len(got) != 0 {
		t.Errorf("unexpected matches: %v", got)
	}
}

func TestByID(t *testing.T) {
	var l Log
	l.Record(mkChange("abc", t0))
	if got := l.ByID("abc"); got == nil || got.ID != "abc" {
		t.Errorf("ByID = %v", got)
	}
	if got := l.ByID("zzz"); got != nil {
		t.Errorf("missing ID should be nil, got %v", got)
	}
}

func TestModifiedSetAndText(t *testing.T) {
	c := &Change{
		Title:       "loosening constraints",
		Description: "for foo",
		Files:       []string{"feed/render.php"},
		Subroutines: []string{"foo", "helper"},
	}
	set := c.ModifiedSet()
	if !set["foo"] || !set["helper"] || len(set) != 2 {
		t.Errorf("ModifiedSet = %v", set)
	}
	text := c.Text()
	for _, want := range []string{"loosening", "foo", "render.php", "helper"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text missing %q: %q", want, text)
		}
	}
}

func TestKindString(t *testing.T) {
	if Code.String() != "code" || Config.String() != "config" {
		t.Error("Kind.String wrong")
	}
}

func TestConcurrentRecord(t *testing.T) {
	var l Log
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				l.Record(mkChange("c", t0.Add(time.Duration(g*50+i)*time.Second)))
			}
			done <- true
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	got := l.Between("", t0, t0.Add(time.Hour))
	if len(got) != 400 {
		t.Errorf("recorded %d changes, want 400", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].DeployedAt.Before(got[i-1].DeployedAt) {
			t.Fatal("not sorted after concurrent records")
		}
	}
}
