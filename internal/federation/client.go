package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/sparql"
)

// attemptTimeout bounds one request attempt, connect to last byte.
const attemptTimeout = 10 * time.Second

// retries is how many times a request is retried on a transient failure: a
// network error, a 429 or a 5xx response.
const retries = 2

// maxResponseBytes bounds one remote response body. Remote endpoints are
// untrusted input just like POSTed triples (which share the same 64 MiB
// cap): without a bound, one malicious or broken endpoint streaming an
// endless bindings array would grow res.Rows until the process dies. A
// response cut off at the cap fails decoding with a truncation error.
const maxResponseBytes = 64 << 20

// errStatus is a non-2xx protocol response; transient() decides retry.
type errStatus struct {
	code int
	body string
}

func (e *errStatus) Error() string {
	if e.body == "" {
		return fmt.Sprintf("endpoint returned HTTP %d", e.code)
	}
	return fmt.Sprintf("endpoint returned HTTP %d: %s", e.code, e.body)
}

func (e *errStatus) transient() bool {
	return e.code == http.StatusTooManyRequests || e.code >= 500
}

// queryEndpoint speaks the SPARQL 1.1 Protocol query operation against one
// remote endpoint: the query goes out as a POSTed form, and the SPARQL-JSON
// response is decoded streamingly. Each attempt runs under its own timeout;
// transient failures are retried with a short backoff until the retry budget
// or ctx runs out.
func queryEndpoint(ctx context.Context, endpoint, query string) (*sparql.Results, error) {
	var lastErr error
	for attempt := 0; attempt <= retries; attempt++ {
		if attempt > 0 {
			backoff := time.Duration(attempt) * 50 * time.Millisecond
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(backoff):
			}
		}
		res, err := queryOnce(ctx, endpoint, query)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var se *errStatus
		if errors.As(err, &se) && !se.transient() {
			break // the endpoint understood us and said no; retrying won't help
		}
	}
	return nil, fmt.Errorf("federation: querying %s: %w", endpoint, lastErr)
}

func queryOnce(ctx context.Context, endpoint, query string) (*sparql.Results, error) {
	actx, cancel := context.WithTimeout(ctx, attemptTimeout)
	defer cancel()

	form := url.Values{"query": {query}}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, endpoint, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("Accept", sparql.JSONContentType)
	req.Header.Set("User-Agent", "lodviz-federation/1.0")

	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		snippet, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &errStatus{code: resp.StatusCode, body: strings.TrimSpace(string(snippet))}
	}
	return DecodeResults(io.LimitReader(resp.Body, maxResponseBytes))
}
