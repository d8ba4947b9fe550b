// Package changelog tracks the code and configuration changes deployed to
// services. FBDetect's root-cause analysis (paper §5.6) and SOMDedup's
// candidate-root-cause feature (paper §5.5.1) query it for changes deployed
// shortly before a regression that touched the regressed subroutines.
package changelog

import (
	"sort"
	"sync"
	"time"
)

// Kind distinguishes code commits from configuration changes.
type Kind int

// Change kinds.
const (
	Code Kind = iota
	Config
)

func (k Kind) String() string {
	if k == Config {
		return "config"
	}
	return "code"
}

// Change is one deployed code or configuration change.
type Change struct {
	ID          string
	Kind        Kind
	Service     string
	Author      string
	Title       string
	Description string
	Files       []string
	// Subroutines lists the subroutines the change modified (for code) or
	// influences (for config). Root-cause analysis matches these against
	// regressed subroutines and their downstream callees.
	Subroutines []string
	DeployedAt  time.Time
}

// ModifiedSet returns the change's subroutines as a set.
func (c *Change) ModifiedSet() map[string]bool {
	set := make(map[string]bool, len(c.Subroutines))
	for _, s := range c.Subroutines {
		set[s] = true
	}
	return set
}

// Text returns the concatenated searchable text of the change (title,
// description, files), the "change context" used for text-similarity
// ranking (paper §5.6).
func (c *Change) Text() string {
	text := c.Title + " " + c.Description
	for _, f := range c.Files {
		text += " " + f
	}
	for _, s := range c.Subroutines {
		text += " " + s
	}
	return text
}

// Log is a concurrency-safe record of deployed changes ordered by deploy
// time. The zero value is ready to use.
type Log struct {
	mu      sync.RWMutex
	changes []*Change // kept sorted by DeployedAt
}

// Record adds a change to the log.
func (l *Log) Record(c *Change) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := sort.Search(len(l.changes), func(i int) bool {
		return l.changes[i].DeployedAt.After(c.DeployedAt)
	})
	l.changes = append(l.changes, nil)
	copy(l.changes[i+1:], l.changes[i:])
	l.changes[i] = c
}

// Between returns changes deployed in [from, to), optionally restricted to
// a service ("" matches all), ordered by deploy time.
func (l *Log) Between(service string, from, to time.Time) []*Change {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []*Change
	for _, c := range l.changes {
		if c.DeployedAt.Before(from) || !c.DeployedAt.Before(to) {
			continue
		}
		if service != "" && c.Service != service {
			continue
		}
		out = append(out, c)
	}
	return out
}

// TouchingSubroutine returns changes in [from, to) that modified the given
// subroutine.
func (l *Log) TouchingSubroutine(service, subroutine string, from, to time.Time) []*Change {
	var out []*Change
	for _, c := range l.Between(service, from, to) {
		for _, s := range c.Subroutines {
			if s == subroutine {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// ByID returns the change with the given ID, or nil.
func (l *Log) ByID(id string) *Change {
	l.mu.RLock()
	defer l.mu.RUnlock()
	for _, c := range l.changes {
		if c.ID == id {
			return c
		}
	}
	return nil
}
