// Package tao implements a small in-memory graph store modeled on TAO
// (Bronson et al., ATC '13), the database substrate of paper §3: FBDetect
// monitors TAO's per-data-type I/O from the serverless platforms and its
// overall query-processing throughput.
//
// The data model is TAO's: typed objects and typed directed associations
// between them. The store counts every operation per data type, which is
// the series FBDetect's per-data-type I/O regression detection consumes.
package tao

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// ObjectID identifies an object.
type ObjectID uint64

// Object is a typed node with opaque payload fields.
type Object struct {
	ID   ObjectID
	Type string
	Data map[string]string
}

// Assoc is a typed directed edge (id1 --type--> id2) with a creation time,
// ordered newest-first in range queries as in TAO.
type Assoc struct {
	ID1, ID2 ObjectID
	Type     string
	Time     time.Time
	Data     map[string]string
}

// OpKind enumerates the store's operations for per-type accounting.
type OpKind int

// Operation kinds.
const (
	OpObjGet OpKind = iota
	OpObjPut
	OpAssocRange
	OpAssocCount
	OpAssocAdd
)

var opNames = [...]string{"obj_get", "obj_put", "assoc_range", "assoc_count", "assoc_add"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return "unknown"
}

// assocKey identifies an association list.
type assocKey struct {
	id1   ObjectID
	atype string
}

// Store is a concurrency-safe in-memory TAO-like graph store with
// per-data-type operation counters.
type Store struct {
	mu      sync.RWMutex
	objects map[ObjectID]*Object
	assocs  map[assocKey][]Assoc

	countMu sync.Mutex
	counts  map[string]map[OpKind]int64 // data type -> op -> count
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		objects: map[ObjectID]*Object{},
		assocs:  map[assocKey][]Assoc{},
		counts:  map[string]map[OpKind]int64{},
	}
}

func (s *Store) count(dataType string, op OpKind) {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	m, ok := s.counts[dataType]
	if !ok {
		m = map[OpKind]int64{}
		s.counts[dataType] = m
	}
	m[op]++
}

// ObjectPut inserts or replaces an object.
func (s *Store) ObjectPut(o *Object) error {
	if o == nil || o.Type == "" {
		return fmt.Errorf("tao: object requires a type")
	}
	s.mu.Lock()
	s.objects[o.ID] = o
	s.mu.Unlock()
	s.count(o.Type, OpObjPut)
	return nil
}

// ObjectGet fetches an object by id; the expected type is used for
// accounting and validated when the object exists.
func (s *Store) ObjectGet(id ObjectID, otype string) (*Object, bool) {
	s.mu.RLock()
	o, ok := s.objects[id]
	s.mu.RUnlock()
	s.count(otype, OpObjGet)
	if !ok || (otype != "" && o.Type != otype) {
		return nil, false
	}
	return o, true
}

// AssocAdd appends an association; lists stay ordered newest first.
func (s *Store) AssocAdd(a Assoc) error {
	if a.Type == "" {
		return fmt.Errorf("tao: assoc requires a type")
	}
	key := assocKey{a.ID1, a.Type}
	s.mu.Lock()
	list := s.assocs[key]
	// Insert keeping newest-first order.
	i := sort.Search(len(list), func(i int) bool { return list[i].Time.Before(a.Time) })
	list = append(list, Assoc{})
	copy(list[i+1:], list[i:])
	list[i] = a
	s.assocs[key] = list
	s.mu.Unlock()
	s.count(a.Type, OpAssocAdd)
	return nil
}

// AssocRange returns up to limit newest associations of (id1, atype)
// starting at offset.
func (s *Store) AssocRange(id1 ObjectID, atype string, offset, limit int) []Assoc {
	s.mu.RLock()
	list := s.assocs[assocKey{id1, atype}]
	var out []Assoc
	if offset < len(list) {
		end := offset + limit
		if end > len(list) {
			end = len(list)
		}
		out = append(out, list[offset:end]...)
	}
	s.mu.RUnlock()
	s.count(atype, OpAssocRange)
	return out
}

// AssocCount returns the number of associations of (id1, atype).
func (s *Store) AssocCount(id1 ObjectID, atype string) int {
	s.mu.RLock()
	n := len(s.assocs[assocKey{id1, atype}])
	s.mu.RUnlock()
	s.count(atype, OpAssocCount)
	return n
}

// TypeCounts returns a copy of the per-data-type operation counters.
func (s *Store) TypeCounts() map[string]map[OpKind]int64 {
	s.countMu.Lock()
	defer s.countMu.Unlock()
	out := make(map[string]map[OpKind]int64, len(s.counts))
	for t, ops := range s.counts {
		m := make(map[OpKind]int64, len(ops))
		for k, v := range ops {
			m[k] = v
		}
		out[t] = m
	}
	return out
}
