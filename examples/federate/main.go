// Command federate demonstrates cross-dataset exploration: two lodviz
// nodes, each holding half of a small knowledge graph, answer one SPARQL
// query together. Node A holds cities, node B holds countries; a SERVICE
// clause on node A follows the locatedIn links out to node B via a batched
// bind join, and the mesh's /federation endpoint shows the peer's health
// afterwards. Finally a query against a dead endpoint shows SERVICE SILENT
// degrading to the local partial result.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"

	"github.com/lodviz/lodviz"
)

const citiesTTL = `
@prefix ex: <http://example.org/> .
ex:athens ex:locatedIn ex:greece ; ex:population 664046 .
ex:patras ex:locatedIn ex:greece ; ex:population 213984 .
ex:lyon ex:locatedIn ex:france ; ex:population 513275 .
ex:bordeaux ex:locatedIn ex:france ; ex:population 252040 .
`

const countriesTTL = `
@prefix ex: <http://example.org/> .
ex:greece ex:name "Greece"@en ; ex:capital ex:athens .
ex:france ex:name "France"@en ; ex:capital ex:paris .
`

func serve(ctx context.Context, ds *lodviz.Dataset) (string, error) {
	cfg := lodviz.ServerConfig{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go ds.ServeListener(ctx, ln, cfg)
	return "http://" + ln.Addr().String() + "/sparql", nil
}

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	cities, err := lodviz.LoadTurtle(citiesTTL)
	if err != nil {
		log.Fatal(err)
	}
	countries, err := lodviz.LoadTurtle(countriesTTL)
	if err != nil {
		log.Fatal(err)
	}

	// Two in-process nodes — the same wiring `lodvizd -peer` does.
	peerB, err := serve(ctx, countries)
	if err != nil {
		log.Fatal(err)
	}
	cities.Federate(peerB)
	fmt.Println("node B (countries) at", peerB)

	// One query, two datasets: the city patterns run locally, the country
	// names come from node B through a batched bind join.
	res, err := cities.QueryCtx(ctx, fmt.Sprintf(`PREFIX ex: <http://example.org/>
		SELECT ?city ?name ?pop WHERE {
			?city ex:locatedIn ?country ; ex:population ?pop .
			SERVICE <%s> { ?country ex:name ?name }
		} ORDER BY DESC(?pop)`, peerB), lodviz.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfederated join (cities local, countries remote):")
	for _, row := range res.Rows {
		fmt.Printf("  %-40s %-12s pop=%s\n", row["city"], row["name"], row["pop"])
	}

	// The mesh tracked the peer while serving the join.
	for _, ep := range cities.FederationStatus() {
		fmt.Printf("\npeer %s: state=%s latency=%.1fms requests=%d\n",
			ep.URL, ep.State, ep.LatencyMs, ep.Requests)
	}

	// SERVICE SILENT against an endpoint nobody runs: the query degrades
	// to its local partial result instead of failing.
	res, err = cities.QueryCtx(ctx, `PREFIX ex: <http://example.org/>
		SELECT ?city ?name WHERE {
			?city ex:locatedIn ?country .
			SERVICE SILENT <http://127.0.0.1:1/sparql> { ?country ex:name ?name }
		}`, lodviz.QueryOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSERVICE SILENT with a dead endpoint: %d rows, names unbound (local partial result)\n", len(res.Rows))
}
