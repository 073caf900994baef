package keyword

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// The words literals are drawn from: few enough that tokens are shared
// across many entities (IDF moves with every write) and that removing one
// entity's posting is usually not removing the token.
var words = []string{"alpha", "beta", "gamma", "delta", "capital", "city", "cat", "car", "42", "7"}

// queries is the fixed vocabulary the maintained and the fresh index are
// compared over: every word, pairs (including a repeated token), a term only
// local names hold, the serving workload's shape (a common and a rare
// token, in both orders: a score is a float sum in query-token order), and
// one nothing matches.
var queries = append(append([]string{}, words...),
	"alpha beta", "city capital city", "gamma 42 cat", "entity", "e3", "entity e3", "e3 entity", "node", "zebra")

var prefixes = []string{"", "a", "ca", "c", "4", "e", "en", "z"}

// schedule drives one store and the Lazy over it through random writes,
// checking the Lazy against a fresh BuildIndex after every step.
type schedule struct {
	t    *testing.T
	rng  *rand.Rand
	st   *store.Store
	lazy *Lazy
	live []rdf.Triple // the model: what the store holds
}

func subject(i int) rdf.Term {
	if i%7 == 0 {
		return rdf.BlankNode(fmt.Sprintf("node%d", i))
	}
	return ex(fmt.Sprintf("Entity_e%d", i))
}

func (s *schedule) object() rdf.Term {
	switch s.rng.Intn(3) {
	case 0:
		return subject(1 + s.rng.Intn(60)) // a link: contributes no text
	case 1:
		return rdf.NewLiteral(words[s.rng.Intn(len(words))])
	default:
		return rdf.NewLiteral(words[s.rng.Intn(len(words))] + ", " + words[s.rng.Intn(len(words))])
	}
}

func (s *schedule) triple() rdf.Triple {
	return rdf.Triple{S: subject(s.rng.Intn(60)), P: ex(fmt.Sprintf("p%d", s.rng.Intn(4))), O: s.object()}
}

func (s *schedule) add(ts []rdf.Triple) {
	s.t.Helper()
	if _, err := s.st.AddBatch(ts); err != nil {
		s.t.Fatal(err)
	}
	have := map[rdf.Triple]bool{}
	for _, t := range s.live {
		have[t] = true
	}
	for _, t := range ts {
		if !have[t] {
			have[t] = true
			s.live = append(s.live, t)
		}
	}
}

func (s *schedule) del(ts []rdf.Triple) {
	s.t.Helper()
	if _, err := s.st.DeleteBatch(ts); err != nil {
		s.t.Fatal(err)
	}
	gone := map[rdf.Triple]bool{}
	for _, t := range ts {
		gone[t] = true
	}
	kept := s.live[:0]
	for _, t := range s.live {
		if !gone[t] {
			kept = append(kept, t)
		}
	}
	s.live = kept
}

// about returns the live statements of one subject.
func (s *schedule) about(subj rdf.Term) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range s.live {
		if t.S == subj {
			out = append(out, t)
		}
	}
	return out
}

// check compares the maintained index with a fresh build on every query and
// prefix, and its searches with searchReference over its own postings:
// entities, scores and snippets, bit for bit. Its impact orders must be its
// ID orders sorted.
func (s *schedule) check(step string) {
	s.t.Helper()
	fresh := BuildIndex(s.st)
	s.lazy.refresh()
	if err := checkOrders(s.lazy.idx); err != nil {
		s.t.Fatalf("after %s: %v", step, err)
	}
	for _, q := range queries {
		for _, limit := range []int{3, 100} {
			got, want := s.lazy.Search(q, limit), fresh.Search(q, limit)
			if !reflect.DeepEqual(got, want) {
				s.t.Fatalf("after %s: Search(%q, %d)\nmaintained %+v\nfresh      %+v", step, q, limit, got, want)
			}
			if ref := searchReference(s.lazy.idx, q, limit); !reflect.DeepEqual(got, ref) {
				s.t.Fatalf("after %s: Search(%q, %d)\nmaintained %+v\nreference  %+v", step, q, limit, got, ref)
			}
		}
	}
	for _, p := range prefixes {
		got, want := s.lazy.Complete(p, 1000), fresh.Complete(p, 1000)
		if !reflect.DeepEqual(got, want) {
			s.t.Fatalf("after %s: Complete(%q)\nmaintained %v\nfresh      %v", step, p, got, want)
		}
	}
}

func (s *schedule) step() string {
	switch op := s.rng.Intn(10); op {
	case 0, 1, 2: // a small insert, some of it usually present already
		ts := make([]rdf.Triple, 1+s.rng.Intn(8))
		for i := range ts {
			ts[i] = s.triple()
		}
		s.add(ts)
		return "add"
	case 3, 4: // a small delete, with a triple the store does not hold
		ts := []rdf.Triple{s.triple()}
		for i := s.rng.Intn(6); i > 0 && len(s.live) > 0; i-- {
			ts = append(ts, s.live[s.rng.Intn(len(s.live))])
		}
		s.del(ts)
		return "delete"
	case 5: // an entity loses its last statement, and so its document
		s.del(s.about(subject(s.rng.Intn(60))))
		return "delete entity"
	case 6: // ... and comes back under the same ID
		subj := subject(s.rng.Intn(60))
		s.del(s.about(subj))
		s.check("delete before re-add")
		s.add([]rdf.Triple{{S: subj, P: ex("p0"), O: rdf.NewLiteral("beta city")}})
		return "re-add entity"
	case 7: // an object flips between literal and IRI
		subj, p := subject(s.rng.Intn(60)), ex("p1")
		var old []rdf.Triple
		literal := false
		for _, t := range s.about(subj) {
			if t.P == p {
				old = append(old, t)
				literal = literal || t.O.Kind() == rdf.KindLiteral
			}
		}
		s.del(old)
		if literal {
			s.add([]rdf.Triple{{S: subj, P: p, O: subject(1)}})
		} else {
			s.add([]rdf.Triple{{S: subj, P: p, O: rdf.NewLiteral("gamma car")}})
		}
		return "flip object kind"
	case 8: // batches that change nothing, and so must log nothing
		before := s.st.Generation()
		if len(s.live) > 0 {
			s.add(s.live[:1+s.rng.Intn(len(s.live))])
		}
		s.del([]rdf.Triple{{S: ex("absent"), P: ex("p0"), O: rdf.NewLiteral("alpha")}})
		if s.st.Generation() != before {
			s.t.Fatalf("no-op batches moved the generation")
		}
		return "no-op batches"
	default:
		s.st.Compact()
		return "compact"
	}
}

func newSchedule(t *testing.T, seed int64) *schedule {
	s := &schedule{t: t, rng: rand.New(rand.NewSource(seed)), st: store.New()}
	s.lazy = NewLazy(s.st)
	// Large enough that a small write is a small share of the store and
	// takes the incremental path.
	var ts []rdf.Triple
	for i := 0; i < 1500; i++ {
		ts = append(ts, s.triple())
	}
	s.add(ts)
	s.check("load")
	return s
}

func TestMaintainedIndexEqualsFreshBuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := newSchedule(t, seed)
			for i := 0; i < 120; i++ {
				s.check(s.step())
			}
			// The schedule must have exercised maintenance, not rebuilt its
			// way through: one rebuild for the load, none after.
			if ls := s.lazy.Stats(); ls.Rebuild.Count != 1 || ls.Incremental.Count < 60 {
				t.Errorf("refreshes: %d incremental, %d rebuilds; want the writes followed incrementally",
					ls.Incremental.Count, ls.Rebuild.Count)
			}
		})
	}
}

func TestMaintainedIndexAcrossLogOverrun(t *testing.T) {
	s := newSchedule(t, 100)
	// More triples than the store's change log retains (1<<16), in one
	// batch: the log cannot vouch for the span and the index rebuilds.
	big := make([]rdf.Triple, 70000)
	for i := range big {
		big[i] = rdf.Triple{S: ex(fmt.Sprintf("Bulk_b%d", i/7)), P: ex("p2"), O: rdf.NewLiteral(fmt.Sprintf("delta %d", i))}
	}
	s.add(big)
	s.check("oversized add")
	if got := s.lazy.Stats().Rebuild.Count; got != 2 {
		t.Errorf("rebuilds after an oversized batch = %d, want 2 (load, overrun)", got)
	}
	// Maintenance resumes on the far side of the gap.
	for i := 0; i < 10; i++ {
		s.check(s.step())
	}
	if got := s.lazy.Stats().Rebuild.Count; got != 2 {
		t.Errorf("rebuilds after resuming = %d, want still 2", got)
	}
	s.del(big)
	s.check("oversized delete")
}

func TestMaintainedIndexAfterSnapshotRestore(t *testing.T) {
	s := newSchedule(t, 200)
	for i := 0; i < 20; i++ {
		s.check(s.step())
	}
	var buf bytes.Buffer
	if err := s.st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := store.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A restored store restarts its generations and has no log of what led
	// to its image; an index over it builds once and follows from there.
	s.st, s.lazy = restored, NewLazy(restored)
	s.check("restore")
	for i := 0; i < 40; i++ {
		s.check(s.step())
	}
	if ls := s.lazy.Stats(); ls.Rebuild.Count != 1 || ls.Incremental.Count < 20 {
		t.Errorf("after restore: %d incremental, %d rebuilds", ls.Incremental.Count, ls.Rebuild.Count)
	}
}

// TestSearchDuringRefresh runs searches against an index a writer keeps
// invalidating. Run with -race: searches share the index under a read lock
// while refreshes modify it in place.
func TestSearchDuringRefresh(t *testing.T) {
	s := newSchedule(t, 300)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				for _, h := range s.lazy.Search(q, 10) {
					if h.Entity == nil || h.Score <= 0 {
						t.Errorf("Search(%q) returned a torn hit %+v", q, h)
						return
					}
				}
				s.lazy.Complete(prefixes[i%len(prefixes)], 10)
			}
		}(r)
	}
	for i := 0; i < 300; i++ {
		s.step()
	}
	close(stop)
	readers.Wait()
	s.check("concurrent schedule")
}
