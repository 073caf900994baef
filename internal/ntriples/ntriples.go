// Package ntriples parses and serializes the N-Triples line-based RDF syntax
// (RDF 1.1 N-Triples). It is the streaming ingestion format for lodviz: the
// reader processes one line at a time so arbitrarily large dumps can be
// loaded without materializing the file.
//
// The package owns the line structure — one statement per line, subject,
// predicate, object, '.', comments — and the line and column of an error.
// The terms themselves (IRI references, blank node labels, literals with
// their escapes, language tags and datatypes) are read by internal/rdf's
// scanners and written by Term.String, as in every other format.
package ntriples

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
)

// ParseError describes a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %s", e.Line, e.Msg)
}

// Reader streams triples from N-Triples input.
type Reader struct {
	scanner *bufio.Scanner
	line    int
}

// NewReader returns a streaming N-Triples reader over r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{scanner: sc}
}

// Next returns the next triple. It returns io.EOF when the input is
// exhausted, or a *ParseError for malformed lines.
func (r *Reader) Next() (rdf.Triple, error) {
	for r.scanner.Scan() {
		r.line++
		line := strings.TrimSpace(r.scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseLine(line, r.line)
		if err != nil {
			return rdf.Triple{}, err
		}
		return t, nil
	}
	if err := r.scanner.Err(); err != nil {
		return rdf.Triple{}, fmt.Errorf("ntriples: read: %w", err)
	}
	return rdf.Triple{}, io.EOF
}

// ReadAll parses the entire input and returns all triples.
func ReadAll(r io.Reader) ([]rdf.Triple, error) {
	nr := NewReader(r)
	var out []rdf.Triple
	for {
		t, err := nr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
}

// ParseString parses a complete N-Triples document held in a string.
func ParseString(s string) ([]rdf.Triple, error) {
	return ReadAll(strings.NewReader(s))
}

// DefaultChunkSize is the number of triples a Decoder yields per chunk.
const DefaultChunkSize = 8192

// Decoder streams an N-Triples document as bounded chunks of triples, so
// gigabyte-sized inputs can be ingested without materializing the whole
// parse in one slice: the caller processes (or batch-inserts) one chunk at a
// time while the wire bytes stream through a fixed scanner buffer.
type Decoder struct {
	r     *Reader
	chunk int
}

// NewDecoder returns a Decoder over r yielding DefaultChunkSize-triple
// chunks.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: NewReader(r), chunk: DefaultChunkSize}
}

// SetChunkSize overrides the chunk size (values < 1 are ignored).
func (d *Decoder) SetChunkSize(n int) {
	if n >= 1 {
		d.chunk = n
	}
}

// NextChunk parses and returns the next chunk of up to the configured number
// of triples. It returns io.EOF (and no triples) once the input is
// exhausted; a short final chunk is returned with a nil error and the
// following call reports io.EOF. Malformed input surfaces as a *ParseError
// carrying the offending line number.
func (d *Decoder) NextChunk() ([]rdf.Triple, error) {
	chunk := make([]rdf.Triple, 0, d.chunk)
	for len(chunk) < d.chunk {
		t, err := d.r.Next()
		if err == io.EOF {
			if len(chunk) == 0 {
				return nil, io.EOF
			}
			return chunk, nil
		}
		if err != nil {
			return nil, err
		}
		chunk = append(chunk, t)
	}
	return chunk, nil
}

// DecodeAll drains the decoder, passing each chunk to fn. It stops on the
// first parse error or the first error returned by fn.
func (d *Decoder) DecodeAll(fn func([]rdf.Triple) error) error {
	for {
		chunk, err := d.NextChunk()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
}

// parseLine reads one trimmed, non-empty statement line. The terms are read
// by the scanners of internal/rdf; what is N-Triples here is their order and
// the closing '.'.
func parseLine(s string, line int) (rdf.Triple, error) {
	fail := func(at int, err error) (rdf.Triple, error) {
		return rdf.Triple{}, &ParseError{Line: line, Msg: fmt.Sprintf("%v (col %d)", err, at+1)}
	}
	subj, i, err := rdf.ScanTerm(s, 0)
	if err != nil {
		return fail(i, err)
	}
	if subj.Kind() == rdf.KindLiteral {
		return fail(0, errors.New("literal in subject position"))
	}
	pred, i, err := rdf.ScanIRIRef(s, rdf.SkipSpace(s, i))
	if err != nil {
		return fail(i, err)
	}
	if pred == "" {
		return fail(i, errors.New("empty IRI"))
	}
	obj, i, err := rdf.ScanTerm(s, rdf.SkipSpace(s, i))
	if err != nil {
		return fail(i, err)
	}
	i = rdf.SkipSpace(s, i)
	if i >= len(s) || s[i] != '.' {
		return fail(i, errors.New("expected '.' terminator"))
	}
	if i = rdf.SkipSpace(s, i+1); i < len(s) {
		return fail(i, errors.New("trailing content after '.'"))
	}
	return rdf.Triple{S: subj, P: pred, O: obj}, nil
}

// Write serializes triples to w in N-Triples syntax, one statement per line.
func Write(w io.Writer, triples []rdf.Triple) error {
	bw := bufio.NewWriter(w)
	for _, t := range triples {
		if !t.Valid() {
			return fmt.Errorf("ntriples: cannot serialize invalid triple %v", t)
		}
		if _, err := bw.WriteString(t.String()); err != nil {
			return fmt.Errorf("ntriples: write: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("ntriples: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("ntriples: flush: %w", err)
	}
	return nil
}

// Format returns the N-Triples serialization of triples as a string.
func Format(triples []rdf.Triple) string {
	var b strings.Builder
	for _, t := range triples {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
