package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// The response shapes the checks read; fields the checks do not use are
// left out.
type (
	termJSON struct {
		Value string `json:"value"`
	}
	facetsJSON struct {
		Count *int `json:"count"`
	}
	statsJSON struct {
		Triples int `json:"triples"`
		Classes []struct {
			Class termJSON `json:"class"`
			Count int      `json:"count"`
		} `json:"classes"`
	}
	// batchJSON is a line of estimates from a progressive stream.
	batchJSON struct {
		Fraction float64 `json:"fraction"`
		Scanned  int     `json:"scanned"`
	}
	// finalJSON is the last line of a progressive stream.
	finalJSON struct {
		Done   bool            `json:"done"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	hetreeJSON struct {
		Items int `json:"items"`
		Nodes []struct {
			Count int `json:"count"`
		} `json:"nodes"`
	}
	searchJSON struct {
		Hits []struct {
			Entity termJSON `json:"entity"`
		} `json:"hits"`
	}
	neighborhoodJSON struct {
		Nodes []termJSON `json:"nodes"`
	}
	sparqlJSON struct {
		Boolean *bool `json:"boolean"`
		Results struct {
			Bindings []json.RawMessage `json:"bindings"`
		} `json:"results"`
	}
	trailerJSON struct {
		Done  bool   `json:"done"`
		Rows  int    `json:"rows"`
		Error string `json:"error"`
	}
	ackJSON struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
		Added    int `json:"added"`
	}
	healthzJSON struct {
		Status  string `json:"status"`
		Triples int    `json:"triples"`
	}
)

// check compares a response with what the reference model says it must be.
func check(d *dataset, r *request, resp *response) error {
	if resp.status != 200 {
		return fmt.Errorf("status %d: %s", resp.status, bytes.TrimSpace(resp.body))
	}
	body := resp.body
	switch r.kind {
	case kStats:
		return checkStats(d, r, body)
	case kFacets:
		return checkFacets(r, body)
	case kFacetsStream, kStatsStream:
		first, last, _ := lines(body)
		var b batchJSON
		if err := json.Unmarshal(first, &b); err != nil {
			return fmt.Errorf("first line: %w", err)
		}
		var f finalJSON
		if err := json.Unmarshal(last, &f); err != nil {
			return fmt.Errorf("last line: %w", err)
		}
		if !f.Done || f.Error != "" {
			return fmt.Errorf("stream did not complete: done=%t error=%q", f.Done, f.Error)
		}
		// A stream of one line is the final line alone; otherwise the first
		// line is an estimate over part of the data.
		if !bytes.Equal(first, last) && (b.Fraction <= 0 || b.Fraction > 1 || b.Scanned <= 0) {
			return fmt.Errorf("first estimate covers fraction %g, %d scanned", b.Fraction, b.Scanned)
		}
		if r.kind == kStatsStream {
			return checkStats(d, r, f.Result)
		}
		return checkFacets(r, f.Result)
	case kHETree:
		var h hetreeJSON
		if err := json.Unmarshal(body, &h); err != nil {
			return err
		}
		sum := 0
		for _, n := range h.Nodes {
			sum += n.Count
		}
		if h.Items != r.want || sum != r.want {
			return fmt.Errorf("hierarchy has %d items and node counts summing to %d, want %d", h.Items, sum, r.want)
		}
	case kSearch:
		var s searchJSON
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		for _, h := range s.Hits {
			if h.Entity.Value == entityIRI(r.node) {
				return nil
			}
		}
		return fmt.Errorf("entity %d is not among the %d hits for %q", r.node, len(s.Hits), r.text)
	case kNeighborhood:
		var nb neighborhoodJSON
		if err := json.Unmarshal(body, &nb); err != nil {
			return err
		}
		if len(nb.Nodes) == 0 || nb.Nodes[0].Value != entityIRI(r.node) {
			return fmt.Errorf("neighbourhood does not start at entity %d", r.node)
		}
		for _, t := range r.targets {
			found := false
			for _, n := range nb.Nodes {
				if n.Value == entityIRI(t) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("link target %d of entity %d is missing", t, r.node)
			}
		}
	case kSparql:
		var s sparqlJSON
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if got := len(s.Results.Bindings); got != r.want {
			return fmt.Errorf("%d rows, want %d", got, r.want)
		}
	case kAsk:
		var s sparqlJSON
		if err := json.Unmarshal(body, &s); err != nil {
			return err
		}
		if s.Boolean == nil || *s.Boolean != (r.want == 1) {
			return fmt.Errorf("ASK answered %s, want %t", body, r.want == 1)
		}
	case kSparqlStream:
		_, last, n := lines(body)
		var t trailerJSON
		if err := json.Unmarshal(last, &t); err != nil {
			return fmt.Errorf("trailer: %w", err)
		}
		// A head line, the rows, and the trailer.
		if !t.Done || t.Error != "" || t.Rows != r.want || n != r.want+2 {
			return fmt.Errorf("stream of %d lines ended done=%t rows=%d error=%q, want %d rows", n, t.Done, t.Rows, t.Error, r.want)
		}
	case kUpdate, kIngest:
		var w ackJSON
		if err := json.Unmarshal(body, &w); err != nil {
			return err
		}
		got := w.Inserted
		if r.kind == kIngest {
			got = w.Added
		} else if r.deletes {
			got = w.Deleted
		}
		if got != r.want {
			return fmt.Errorf("write acknowledged %s, want %d triples", body, r.want)
		}
	case kHealthz:
		var h healthzJSON
		if err := json.Unmarshal(body, &h); err != nil {
			return err
		}
		if h.Status != "ok" || (r.want >= 0 && h.Triples != r.want) {
			return fmt.Errorf("healthz reports %q with %d triples, want %d", h.Status, h.Triples, r.want)
		}
	}
	return nil
}

func checkFacets(r *request, body []byte) error {
	var f facetsJSON
	if err := json.Unmarshal(body, &f); err != nil {
		return err
	}
	if f.Count == nil || *f.Count != r.want {
		return fmt.Errorf("facet count %v, want %d", f.Count, r.want)
	}
	return nil
}

// checkStats checks the class histogram always, and the triple count when
// the workload has no writer.
func checkStats(d *dataset, r *request, body []byte) error {
	var s statsJSON
	if err := json.Unmarshal(body, &s); err != nil {
		return err
	}
	if r.want >= 0 && s.Triples != r.want {
		return fmt.Errorf("stats report %d triples, want %d", s.Triples, r.want)
	}
	var hist [classes]int
	for _, c := range d.class {
		hist[c]++
	}
	seen := 0
	for _, c := range s.Classes {
		for k, n := range hist {
			if c.Class.Value == classIRI(k) {
				if c.Count != n {
					return fmt.Errorf("stats report %d entities of class %d, want %d", c.Count, k, n)
				}
				seen++
			}
		}
	}
	if seen != classes {
		return fmt.Errorf("stats list %d of the %d classes", seen, classes)
	}
	return nil
}

// lines returns the first and the last line of an NDJSON body and the number
// of lines.
func lines(body []byte) (first, last []byte, n int) {
	body = bytes.TrimRight(body, "\n")
	n = bytes.Count(body, []byte("\n")) + 1
	first, last = body, body
	if i := bytes.IndexByte(body, '\n'); i >= 0 {
		first = body[:i]
	}
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		last = body[i+1:]
	}
	return first, last, n
}
