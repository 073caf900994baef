package sparql

import (
	"context"
	"fmt"
)

// ServiceEvaluator evaluates a SERVICE clause against a remote endpoint. The
// engine itself never talks to the network; the federation layer
// (internal/federation) supplies the implementation through
// Options.Service, which keeps this package free of HTTP concerns and the
// import graph acyclic.
type ServiceEvaluator interface {
	// EvalService evaluates call.Pattern against call.Endpoint and returns
	// the input bindings joined with the remote solutions. Implementations
	// must preserve multiset semantics: the result is exactly
	// eval(remote pattern) ⋈ call.Bindings.
	EvalService(ctx context.Context, call *ServiceCall) ([]Binding, error)
}

// ServiceCall carries one SERVICE evaluation request to the evaluator.
type ServiceCall struct {
	// Endpoint is the remote SPARQL endpoint IRI from the query.
	Endpoint string
	// Silent mirrors SERVICE SILENT (the engine already implements the
	// degrade-to-identity contract; evaluators may use it to soften
	// logging or skip retries).
	Silent bool
	// Pattern is the inner graph pattern to evaluate remotely.
	Pattern *Group
	// Bindings are the local solutions accumulated so far; the evaluator
	// joins the remote solutions with them.
	Bindings []Binding
}

// evalService dispatches a SERVICE element to the engine's evaluator. With
// no evaluator configured, or when the evaluator fails, SERVICE SILENT
// degrades to the identity solution (the input passes through unchanged,
// i.e. the query falls back to its local partial result) while a plain
// SERVICE fails the query.
func (e *engine) evalService(svc Service, input []Binding) ([]Binding, error) {
	if e.svc == nil {
		if svc.Silent {
			return input, nil
		}
		return nil, fmt.Errorf("sparql: SERVICE <%s>: no federation evaluator configured", svc.Endpoint)
	}
	out, err := e.svc.EvalService(e.ctx, &ServiceCall{
		Endpoint: svc.Endpoint,
		Silent:   svc.Silent,
		Pattern:  svc.Inner,
		Bindings: input,
	})
	if err != nil {
		// Cancellation must win over SILENT: a killed query stays killed.
		if cerr := e.cancelled(); cerr != nil {
			return nil, cerr
		}
		if svc.Silent {
			return input, nil
		}
		return nil, fmt.Errorf("sparql: SERVICE <%s>: %w", svc.Endpoint, err)
	}
	return out, nil
}
