// Package federation lets one lodviz node answer queries that span many
// SPARQL endpoints — the "Web" in the Web of Big Linked Data. The survey's
// cross-dataset exploration scenario (follow an owl:sameAs link out of the
// local dataset into a remote one) needs exactly four things, and this
// package layers them:
//
//   - a SPARQL Protocol query function with a streaming SPARQL-JSON
//     decoder — the inverse of the sparql package's serializer — plus
//     retries and per-attempt timeouts;
//   - an endpoint registry (Registry) tracking health and a latency EWMA,
//     with circuit breakers that eject failing endpoints and probe them
//     back in;
//   - a bind-join executor that batches local bindings into VALUES-injected
//     remote subqueries and streams the merged solutions back, dispatching
//     batches with bounded parallelism;
//   - an LRU remote-result cache keyed by (endpoint, subquery) with TTL
//     expiry — remote data has no generation counter to key on, so staleness
//     is bounded by time instead.
//
// Mesh ties the layers together and implements sparql.ServiceEvaluator, so
// plugging a Mesh into sparql.Options.Service gives the engine a working
// SERVICE clause. Any SPARQL 1.1 endpoint that speaks the JSON results
// format works as a peer — including other lodvizd instances, which is how
// a set of nodes becomes an exploration mesh.
package federation
