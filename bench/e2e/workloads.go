package main

import (
	"fmt"
	"math/rand"
	"time"
)

// clients is the number of keep-alive connections, one goroutine each.
const clients = 2

// workloadNames lists the workloads in the order they are run.
var workloadNames = []string{"session_warm", "session_cold", "mixed_rw", "bulk_ingest"}

// stream yields the next request of one client.
type stream func() *request

// workload is the traffic of one benchmark run.
type workload struct {
	name string
	// pre is sent first on one connection, then each client sends its warm
	// list; all of it is untimed and every response is checked in full.
	pre  []*request
	warm [clients][]*request
	// streams are the timed phase. A client with a pace sends on a schedule
	// and times each request from when it was due; the others send a
	// request when the previous one has been answered.
	streams [clients]stream
	pace    [clients]time.Duration
	// round is how many requests of a reader's stream make one session: an
	// exploration session, or for the reader of bulk_ingest one overview
	// and the lookups after it. 0 for a writer.
	round [clients]int
	// mix is how many requests the single-threaded replay takes from each
	// stream in turn.
	mix [clients]int
	// digest lets the timed phase compare a response with the one the
	// warm-up checked, in place of parsing it again.
	digest bool
	writer *writer // nil when nothing writes
	// crash has the server killed after the timed phase and restarted on
	// the same WAL before the acknowledged writes are looked for.
	crash bool
}

const (
	// catalogueSessions is the size of the catalogue that session_warm
	// and mixed_rw draw sessions from: about 1 000 distinct requests,
	// which the server's 4096-entry cache holds.
	catalogueSessions = 100
	// rerank is how many sessions a client draws before the ranking that
	// Zipf draws from is shuffled. With one ranking for a whole run the
	// three sessions at its head are two fifths of the traffic, and the run
	// measures how large their responses happen to be under that seed.
	rerank = 32
	// writeGap is the time between the due times of the writes of mixed_rw.
	writeGap = 100 * time.Millisecond
	// bulkRound is the length of a round of the reader of bulk_ingest.
	bulkRound = 8
)

func newWorkload(name string, d *dataset, seed int64) (*workload, error) {
	w := &workload{name: name, mix: [clients]int{1, 1}}
	switch name {
	case "session_warm":
		w.catalogue(d, seed, true)
		w.digest = true
	case "session_cold":
		gens := newSessionGens(d, seed, clients, false, true)
		// The views every session shares, and whatever is built on first
		// use, are not what this workload is about.
		w.pre = []*request{statsReq(false, d.triples()), facetsReq(d, selection{class: -1}, false), searchReq(d, 0)}
		for c := 0; c < classes; c++ {
			w.pre = append(w.pre, facetsReq(d, selection{class: c}, false))
		}
		for c, g := range gens {
			w.warm[c] = g.next()
			w.streams[c], w.round[c] = sessionStream(g), sessionLen
		}
	case "mixed_rw":
		w.catalogue(d, seed, false)
		w.writer = &writer{tag: "m"}
		w.streams[1], w.round[1] = w.writer.nextMixed, 0 // client 1 writes
		w.pace[1] = writeGap
		w.mix = [clients]int{2, 1}
		w.crash = true
		// The writer reaches its steady rotation before the clock starts.
		for i := 0; i < deleteLag+1; i++ {
			w.pre = append(w.pre, w.streams[1]())
		}
	case "bulk_ingest":
		w.writer = &writer{tag: "b"}
		w.streams[0] = w.writer.nextBulk
		for i := 0; i < deleteLag+1; i++ {
			w.pre = append(w.pre, w.streams[0]())
		}
		nodes := newDecks(rand.New(rand.NewSource(seed)), d.entities(), 1)[0]
		i := 0
		w.streams[1] = func() *request {
			i++
			// One progressive overview to seven lookups. The reader still
			// spends most of its time in the overview, but the median read
			// is a lookup and the 90th percentile an overview, each inside
			// its kind and with enough samples to be resolved.
			if i%bulkRound == 1 {
				return statsReq(true, -1)
			}
			return lookupReq(nodes.draw())
		}
		w.round[1] = bulkRound
		w.pre = append(w.pre, statsReq(true, -1), lookupReq(nodes.draw()))
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// catalogue sets up the reader side of session_warm and mixed_rw: a fixed set
// of sessions, drawn from with Zipf(1.1) over a popularity ranking that
// changes every rerank sessions, whose every request the warm-up sends once. static says that nothing writes, so that /stats can be checked
// to the triple.
func (w *workload) catalogue(d *dataset, seed int64, static bool) {
	gen := newSessionGens(d, seed, 1, true, static)[0]
	byTarget := map[string]*request{}
	sessions := make([][]*request, catalogueSessions)
	n := 0
	for s := range sessions {
		sessions[s] = gen.next()
		for i, r := range sessions[s] {
			if seen, ok := byTarget[r.target]; ok {
				sessions[s][i] = seen
				continue
			}
			byTarget[r.target] = r
			w.warm[n%clients] = append(w.warm[n%clients], r)
			n++
		}
	}
	for c := range w.streams {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c) + 7))
		zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(sessions)-1))
		rank := rng.Perm(len(sessions)) // rank[0] is the most popular session
		drawn := 0
		var cur []*request
		w.streams[c] = func() *request {
			if len(cur) == 0 {
				if drawn++; drawn%rerank == 0 {
					rng.Shuffle(len(rank), func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
				}
				cur = sessions[rank[zipf.Uint64()]]
			}
			r := cur[0]
			cur = cur[1:]
			return r
		}
		w.round[c] = sessionLen
	}
}

func sessionStream(g *sessionGen) stream {
	var cur []*request
	return func() *request {
		if len(cur) == 0 {
			cur = g.next()
		}
		r := cur[0]
		cur = cur[1:]
		return r
	}
}

// replayOrder is the first n requests of the timed phase as the
// single-threaded replay takes them: mix[c] requests from each client in turn.
func (w *workload) replayOrder(n int) []*request {
	out := make([]*request, 0, n)
	for len(out) < n {
		for c, s := range w.streams {
			for i := 0; i < w.mix[c] && len(out) < n; i++ {
				out = append(out, s())
			}
		}
	}
	return out
}
