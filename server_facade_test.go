package lodviz

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

func quietConfig() ServerConfig {
	return ServerConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func newLocalListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

func waitForServer(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("server at %s never became ready", url)
}

func TestQueryTypedErrors(t *testing.T) {
	ds := MiniLOD()
	if _, err := ds.QueryCtx(context.Background(), "SELECT nope {{{", QueryOptions{}); !errors.Is(err, ErrQueryParse) {
		t.Fatalf("malformed query error %v does not match ErrQueryParse", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ds.QueryCtx(ctx, "SELECT ?s WHERE { ?s ?p ?o }", QueryOptions{})
	if !errors.Is(err, ErrQueryEval) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query error %v must match ErrQueryEval and context.Canceled", err)
	}
}

func TestGenerationAdvances(t *testing.T) {
	ds := MiniLOD()
	g := ds.Generation()
	if g == 0 {
		t.Fatal("loaded dataset must have a non-zero generation")
	}
	if err := ds.Add(Triple{S: IRI("http://e/s"), P: IRI("http://e/p"), O: NewLiteral("v")}); err != nil {
		t.Fatal(err)
	}
	if ds.Generation() <= g {
		t.Fatalf("generation did not advance on Add: %d -> %d", g, ds.Generation())
	}
}

func TestHandlerEndToEnd(t *testing.T) {
	ds := MiniLOD()
	ts := httptest.NewServer(ds.Handler(quietConfig()))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape("ASK { ?s ?p ?o }"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var doc struct {
		Boolean *bool `json:"boolean"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Boolean == nil || !*doc.Boolean {
		t.Fatalf("boolean = %v, want true", doc.Boolean)
	}

	for _, path := range []string{"/stats", "/facets", "/healthz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d, want 200", path, r.StatusCode)
		}
	}
}

func TestServeListenerShutdown(t *testing.T) {
	ds := MiniLOD()
	ctx, cancel := context.WithCancel(context.Background())
	ln := newLocalListener(t)
	done := make(chan error, 1)
	go func() { done <- ds.ServeListener(ctx, ln, quietConfig()) }()
	waitForServer(t, "http://"+ln.Addr().String()+"/healthz")
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("ServeListener returned %v on shutdown, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
}
