// Benchharness runs every experiment in DESIGN.md's index (E1–E12) and
// prints paper-style result rows; EXPERIMENTS.md records its output against
// the survey's claims.
//
// Usage:
//
//	benchharness               # run everything
//	benchharness -only E6,E7   # run a subset
//	benchharness -quick        # smaller sweeps (CI-sized)
//
// Regression mode (see regress.go) measures pinned scenarios, emits a JSON
// artifact, and gates against the committed baseline:
//
//	benchharness -scenarios store -out BENCH_store.json -gate
//	benchharness -scenarios store -update-baseline   # refresh bench/baseline.json
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/lodviz/lodviz"
	"github.com/lodviz/lodviz/internal/aggregate"
	"github.com/lodviz/lodviz/internal/bundling"
	"github.com/lodviz/lodviz/internal/crack"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/layout"
	"github.com/lodviz/lodviz/internal/prefetch"
	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/recommend"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/spatial"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/super"
	"github.com/lodviz/lodviz/internal/vis"
)

var quick = flag.Bool("quick", false, "smaller sweeps")

func main() {
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E3,E6)")
	scenarios := flag.String("scenarios", "", "regression scenario set (store, stream, write, explore, or obs); skips the experiments")
	out := flag.String("out", "", "write scenario results to this JSON artifact")
	baseline := flag.String("baseline", "bench/baseline.json", "baseline file for -gate / -update-baseline")
	updateBaseline := flag.Bool("update-baseline", false, "rewrite the baseline from this run's results")
	gate := flag.Bool("gate", false, "fail when a scenario regresses past the gate ratio (BENCH_GATE, default 1.25)")
	flag.Parse()

	if *scenarios != "" {
		os.Exit(runRegress(*scenarios, *out, *baseline, *updateBaseline, *gate))
	}

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"E1", "Table 1 regeneration", e1},
		{"E2", "Table 2 regeneration", e2},
		{"E3", "reduction: squeeze N objects into the pixel budget", e3},
		{"E4", "progressive approximate aggregation", e4},
		{"E5", "HETree: full vs incremental construction", e5},
		{"E6", "adaptive indexing: scan vs full sort vs cracking", e6},
		{"E7", "disk-backed tiles vs in-memory graph rendering", e7},
		{"E8", "supernode hierarchy vs flat drawing", e8},
		{"E9", "edge bundling ink reduction", e9},
		{"E10", "caching & prefetching in exploration sessions", e10},
		{"E11", "visualization recommendation accuracy", e11},
		{"E12", "triple store & SPARQL substrate throughput", e12},
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	for _, ex := range experiments {
		if len(want) > 0 && !want[ex.id] {
			continue
		}
		fmt.Printf("==== [%s] %s ====\n", ex.id, ex.name)
		start := time.Now()
		ex.run()
		fmt.Printf("---- %s done in %v\n\n", ex.id, time.Since(start).Round(time.Millisecond))
	}
}

func scale(full int) int {
	if *quick {
		return full / 10
	}
	return full
}

// E1/E2 — table regeneration.

func e1() { fmt.Println(lodviz.Table1()) }

func e2() {
	fmt.Println(lodviz.Table2())
	fmt.Println(lodviz.Observations())
}

// E3 — reduction strategies against the pixel budget ("squeeze a billion
// records into a million pixels", ref [119]).
func e3() {
	budgetW, budgetH := 1000, 1000 // one megapixel
	fmt.Printf("%-10s %-12s %10s %10s %12s %10s\n",
		"N", "strategy", "out_points", "time_ms", "coverage", "reduction")
	for _, n := range []int{scale(10000), scale(100000), scale(1000000)} {
		rng := rand.New(rand.NewSource(7))
		pts := make([]sampling.Point, n)
		for i := range pts {
			// Clustered + outliers, the adversarial case for naive sampling.
			if i%997 == 0 {
				pts[i] = sampling.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			} else {
				pts[i] = sampling.Point{X: 50 + rng.NormFloat64()*2, Y: 50 + rng.NormFloat64()*2}
			}
		}
		budget := 10000 // marks the view can hold
		row := func(name string, out []sampling.Point, d time.Duration) {
			cov := sampling.PixelCoverage(out, budgetW, budgetH)
			fmt.Printf("%-10d %-12s %10d %10.2f %12.5f %9.1fx\n",
				n, name, len(out), float64(d.Microseconds())/1000, cov,
				float64(n)/math.Max(1, float64(len(out))))
		}
		t0 := time.Now()
		row("raw", pts, time.Since(t0))

		t0 = time.Now()
		res, _ := sampling.NewReservoir[sampling.Point](budget, 1)
		for _, p := range pts {
			res.Add(p)
		}
		row("reservoir", res.Sample(), time.Since(t0))

		t0 = time.Now()
		vas, _ := sampling.VisualizationAware(pts, budget, budgetW, budgetH, 1)
		row("vas", vas, time.Since(t0))

		t0 = time.Now()
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		grid, _ := aggregate.Bin2D(xs, ys, 100, 100)
		var binned []sampling.Point
		for _, c := range grid.NonEmpty() {
			binned = append(binned, sampling.Point{X: float64(c.XBin), Y: float64(c.YBin)})
		}
		row("bin2d", binned, time.Since(t0))
	}
	// M4 on a time series.
	n := scale(1000000)
	series := make([]aggregate.M4Point, n)
	for i := range series {
		series[i] = aggregate.M4Point{T: float64(i), V: math.Sin(float64(i) / 500)}
	}
	t0 := time.Now()
	m4, _ := aggregate.M4(series, 1000)
	fmt.Printf("%-10d %-12s %10d %10.2f %12s %9.1fx  (pixel-perfect line chart)\n",
		n, "m4", len(m4), float64(time.Since(t0).Microseconds())/1000, "-",
		float64(n)/float64(len(m4)))
}

// E4 — progressive aggregation with confidence intervals.
func e4() {
	n := scale(1000000)
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	exact := 0.0
	for _, v := range vals {
		exact += v
	}
	exact /= float64(n)

	fmt.Printf("exact mean = %.4f over N=%d\n", exact, n)
	fmt.Printf("%-10s %12s %12s %12s %10s\n", "fraction", "estimate", "abs_err", "ci95", "time_ms")
	s := progressive.NewSampler(vals, progressive.Mean, 11)
	batch := n / 20
	t0 := time.Now()
	for s.Step(batch) {
		e := s.Current()
		if int(e.Fraction*100+0.5)%25 == 0 || e.Fraction < 0.11 {
			fmt.Printf("%-10.2f %12.4f %12.4f %12.4f %10.2f\n",
				e.Fraction, e.Value, math.Abs(e.Value-exact), e.CI95,
				float64(time.Since(t0).Microseconds())/1000)
		}
	}
	final := s.Current()
	fmt.Printf("%-10.2f %12.4f %12.4f %12.4f %10.2f  (final=exact)\n",
		final.Fraction, final.Value, math.Abs(final.Value-exact), final.CI95,
		float64(time.Since(t0).Microseconds())/1000)
}

// E5 — HETree full vs incremental construction.
func e5() {
	fmt.Printf("%-10s %-14s %12s %14s\n", "N", "mode", "time_ms", "nodes_created")
	for _, n := range []int{scale(100000), scale(1000000)} {
		items := make([]hetree.Item, n)
		rng := rand.New(rand.NewSource(5))
		for i := range items {
			items[i] = hetree.Item{Value: rng.NormFloat64() * 1000}
		}
		t0 := time.Now()
		full, _ := hetree.New(items, hetree.Options{Degree: 4, LeafCapacity: 32})
		fullTime := time.Since(t0)
		fmt.Printf("%-10d %-14s %12.2f %14d\n", n, "FULL",
			float64(fullTime.Microseconds())/1000, full.MaterializedNodes())

		t0 = time.Now()
		inc, _ := hetree.New(items, hetree.Options{Degree: 4, LeafCapacity: 32, Incremental: true})
		// Simulate a user drilling down 10 root-to-leaf paths.
		rng2 := rand.New(rand.NewSource(9))
		for p := 0; p < 10; p++ {
			node := inc.Root()
			for {
				cs := inc.Children(node)
				if cs == nil {
					break
				}
				node = cs[rng2.Intn(len(cs))]
			}
		}
		incTime := time.Since(t0)
		fmt.Printf("%-10d %-14s %12.2f %14d  (10 drill-down paths)\n", n, "INCREMENTAL",
			float64(incTime.Microseconds())/1000, inc.MaterializedNodes())
	}
}

// E6 — adaptive indexing.
func e6() {
	n := scale(1000000)
	q := 1000
	if *quick {
		q = 200
	}
	rng := rand.New(rand.NewSource(6))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	queries := make([][2]float64, q)
	for i := range queries {
		lo := rng.Float64() * 1e6
		queries[i] = [2]float64{lo, lo + 1e4}
	}
	checkpoints := map[int]bool{1: true, 10: true, 100: true, q: true}
	fmt.Printf("%-12s %14s %14s %14s\n", "queries", "scan_ms", "sort_ms", "crack_ms")

	// Scan baseline.
	scanT := make(map[int]time.Duration)
	t0 := time.Now()
	sc := crack.NewScan(vals)
	for i, qr := range queries {
		sc.Count(qr[0], qr[1])
		if checkpoints[i+1] {
			scanT[i+1] = time.Since(t0)
		}
	}
	// Full-sort baseline (sort cost charged to first query).
	sortT := make(map[int]time.Duration)
	t0 = time.Now()
	so := crack.NewSorted(vals)
	for i, qr := range queries {
		so.Count(qr[0], qr[1])
		if checkpoints[i+1] {
			sortT[i+1] = time.Since(t0)
		}
	}
	// Cracking.
	crackT := make(map[int]time.Duration)
	t0 = time.Now()
	cr, _ := crack.New(vals)
	for i, qr := range queries {
		cr.Count(qr[0], qr[1])
		if checkpoints[i+1] {
			crackT[i+1] = time.Since(t0)
		}
	}
	for _, cp := range []int{1, 10, 100, q} {
		fmt.Printf("%-12d %14.2f %14.2f %14.2f\n", cp,
			float64(scanT[cp].Microseconds())/1000,
			float64(sortT[cp].Microseconds())/1000,
			float64(crackT[cp].Microseconds())/1000)
	}
	fmt.Printf("cracker ended with %d pieces, %d swaps\n", cr.Pieces(), cr.Swaps())
}

// E7 — disk tiles vs in-memory for viewport queries.
func e7() {
	n := scale(200000)
	rng := rand.New(rand.NewSource(8))
	pts := make([]spatial.TilePoint, n)
	for i := range pts {
		pts[i] = spatial.TilePoint{ID: uint32(i), X: rng.Float64() * 4096, Y: rng.Float64() * 4096}
	}
	// In-memory R-tree.
	var rt spatial.RTree
	t0 := time.Now()
	for _, p := range pts {
		rt.Insert(spatial.Entry{Rect: spatial.PointRect(p.X, p.Y), ID: p.ID})
	}
	rtBuild := time.Since(t0)

	// Disk tiles with a 64-page (256 KiB) pool.
	dir, err := os.MkdirTemp("", "lodviz-bench")
	if err != nil {
		fmt.Println("tempdir:", err)
		return
	}
	defer os.RemoveAll(dir)
	ts, err := spatial.NewTileStore(filepath.Join(dir, "t.db"), spatial.NewRect(0, 0, 4096, 4096), 32, 64)
	if err != nil {
		fmt.Println("tiles:", err)
		return
	}
	defer ts.Close()
	t0 = time.Now()
	if err := ts.AddAll(pts); err != nil {
		fmt.Println("load:", err)
		return
	}
	tileBuild := time.Since(t0)

	fmt.Printf("build: rtree(memory)=%.1fms  tiles(disk)=%.1fms\n",
		float64(rtBuild.Microseconds())/1000, float64(tileBuild.Microseconds())/1000)
	fmt.Printf("resident: rtree holds all %d points in heap; tile pool capped at 64 pages = %d KiB\n",
		n, 64*4)

	// Pan session: 50 viewport queries.
	windows := make([]spatial.Rect, 50)
	for i := range windows {
		x := float64(i%10) * 400
		y := float64(i/10) * 800
		windows[i] = spatial.NewRect(x, y, x+1024, y+1024)
	}
	t0 = time.Now()
	found := 0
	for _, w := range windows {
		found += len(rt.Search(w))
	}
	rtQuery := time.Since(t0)
	t0 = time.Now()
	found2 := 0
	for _, w := range windows {
		got, _ := ts.Query(w)
		found2 += len(got)
	}
	tileQuery := time.Since(t0)
	fmt.Printf("50-window pan: rtree=%.2fms (%d pts)  tiles=%.2fms (%d pts)  pool hitrate=%.2f\n",
		float64(rtQuery.Microseconds())/1000, found,
		float64(tileQuery.Microseconds())/1000, found2, ts.Pool().HitRate())
}

// E8 — supernode abstraction vs flat drawing.
func e8() {
	n := scale(20000)
	ds, _ := lodviz.GenerateScaleFree(n, 2, 13)
	g := ds.BuildGraph()
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	t0 := time.Now()
	layout.ForceDirected(g, layout.Options{Iterations: 10, Seed: 1})
	flat := time.Since(t0)

	t0 = time.Now()
	h := super.Build(g, super.Options{MaxLeafSize: 64, Seed: 1})
	build := time.Since(t0)
	v := h.NewView()
	t0 = time.Now()
	v.ExpandToBudget(200)
	edges := v.Edges()
	frame := time.Since(t0)

	fmt.Printf("flat force-directed (10 iters): %.1fms for %d nodes\n",
		float64(flat.Microseconds())/1000, g.NumNodes())
	fmt.Printf("hierarchy build: %.1fms (%d supernodes, depth %d)\n",
		float64(build.Microseconds())/1000, len(h.Nodes), h.Depth())
	fmt.Printf("budgeted frame: %.2fms → %d visible supernodes, %d aggregated edges\n",
		float64(frame.Microseconds())/1000, len(v.Visible), len(edges))
}

// E9 — edge bundling ink reduction.
func e9() {
	// Bipartite traffic between two clusters, the classic bundling showcase.
	m := 200
	if *quick {
		m = 50
	}
	parent := []int{-1, 0, 0}
	positions := []bundling.Point{{X: 500, Y: 50}, {X: 100, Y: 500}, {X: 900, Y: 500}}
	var edges []bundling.Edge
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < m; i++ {
		// Leaves under cluster 1 and 2.
		l1 := len(parent)
		parent = append(parent, 1)
		positions = append(positions, bundling.Point{X: 50 + rng.Float64()*100, Y: 400 + rng.Float64()*300})
		l2 := len(parent)
		parent = append(parent, 2)
		positions = append(positions, bundling.Point{X: 850 + rng.Float64()*100, Y: 400 + rng.Float64()*300})
		edges = append(edges, bundling.Edge{From: l1, To: l2})
	}
	straight := bundling.HierarchicalBundle(edges, parent, positions, 0)
	t0 := time.Now()
	bundled := bundling.HierarchicalBundle(edges, parent, positions, 0.9)
	hebTime := time.Since(t0)
	ratio := bundling.InkRatio(straight, bundled, 512)
	fmt.Printf("HEB:  %d edges bundled in %.2fms, ink ratio %.3f (1.0 = no saving)\n",
		len(edges), float64(hebTime.Microseconds())/1000, ratio)

	t0 = time.Now()
	fdeb := bundling.FDEB(edges[:min(m, 60)], positions, bundling.FDEBOptions{})
	fdebTime := time.Since(t0)
	fratio := bundling.InkRatio(straight[:len(fdeb)], fdeb, 512)
	fmt.Printf("FDEB: %d edges bundled in %.2fms, ink ratio %.3f\n",
		len(fdeb), float64(fdebTime.Microseconds())/1000, fratio)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// E10 — caching & prefetching.
func e10() {
	// Three exploration traces: linear pan, local back-and-forth, random.
	mkLinear := func(n int) []prefetch.Tile {
		out := make([]prefetch.Tile, n)
		for i := range out {
			out[i] = prefetch.Tile{X: i, Y: 0, Zoom: 4}
		}
		return out
	}
	mkLocal := func(n int) []prefetch.Tile {
		out := make([]prefetch.Tile, n)
		for i := range out {
			out[i] = prefetch.Tile{X: i % 5, Y: (i / 5) % 3, Zoom: 4}
		}
		return out
	}
	mkRandom := func(n int) []prefetch.Tile {
		rng := rand.New(rand.NewSource(2))
		out := make([]prefetch.Tile, n)
		for i := range out {
			out[i] = prefetch.Tile{X: rng.Intn(50), Y: rng.Intn(50), Zoom: 4}
		}
		return out
	}
	fmt.Printf("%-12s %14s %14s %14s\n", "trace", "no_prefetch", "with_prefetch", "prefetch_loads")
	for _, tc := range []struct {
		name  string
		trace []prefetch.Tile
	}{
		{"linear-pan", mkLinear(200)},
		{"local-area", mkLocal(200)},
		{"random", mkRandom(200)},
	} {
		plain := prefetch.SimulateSession(tc.trace, 32, false, func(prefetch.Tile) {})
		pf := prefetch.SimulateSession(tc.trace, 32, true, func(prefetch.Tile) {})
		fmt.Printf("%-12s %13.1f%% %13.1f%% %14d\n",
			tc.name, plain.HitRate()*100, pf.HitRate()*100, pf.Prefetches)
	}
}

// E11 — recommendation accuracy over a labeled corpus.
func e11() {
	type labeled struct {
		name string
		cols []recommend.Profile
		want vis.Type
	}
	corpus := []labeled{
		{"two numerics", []recommend.Profile{
			{Name: "a", Kind: recommend.Numeric, Cardinality: 500, Rows: 500, Coverage: 1},
			{Name: "b", Kind: recommend.Numeric, Cardinality: 500, Rows: 500, Coverage: 1}},
			vis.Scatter},
		{"time series", []recommend.Profile{
			{Name: "t", Kind: recommend.Temporal, Cardinality: 100, Rows: 100, Coverage: 1},
			{Name: "v", Kind: recommend.Numeric, Cardinality: 90, Rows: 100, Coverage: 1}},
			vis.LineChart},
		{"categories+measure", []recommend.Profile{
			{Name: "c", Kind: recommend.Categorical, Cardinality: 6, Rows: 300, Coverage: 1},
			{Name: "v", Kind: recommend.Numeric, Cardinality: 250, Rows: 300, Coverage: 1}},
			vis.BarChart},
		{"geo+measure", []recommend.Profile{
			{Name: "loc", Kind: recommend.GeoPoint, Cardinality: 400, Rows: 400, Coverage: 1},
			{Name: "v", Kind: recommend.Numeric, Cardinality: 350, Rows: 400, Coverage: 1}},
			vis.Map},
		{"entity links", []recommend.Profile{
			{Name: "s", Kind: recommend.Entity, Cardinality: 200, Rows: 400, Coverage: 1},
			{Name: "o", Kind: recommend.Entity, Cardinality: 220, Rows: 400, Coverage: 1}},
			vis.GraphVis},
		{"single numeric", []recommend.Profile{
			{Name: "v", Kind: recommend.Numeric, Cardinality: 900, Rows: 1000, Coverage: 1}},
			vis.Histogram},
		{"small categorical", []recommend.Profile{
			{Name: "c", Kind: recommend.Categorical, Cardinality: 4, Rows: 100, Coverage: 1}},
			vis.PieChart},
	}
	top1, top3 := 0, 0
	for _, l := range corpus {
		recs := recommend.Recommend(l.cols)
		if len(recs) > 0 && recs[0].Type == l.want {
			top1++
		}
		for i := 0; i < 3 && i < len(recs); i++ {
			if recs[i].Type == l.want {
				top3++
				break
			}
		}
	}
	fmt.Printf("labeled cases: %d   top-1 accuracy: %d/%d   top-3 accuracy: %d/%d\n",
		len(corpus), top1, len(corpus), top3, len(corpus))
}

// E12 — substrate throughput.
func e12() {
	n := scale(500000)
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: n / 5, NumericProps: 2, CategoryProps: 1, LinkProps: 1, Seed: 12,
	})
	t0 := time.Now()
	st, _ := store.Load(triples)
	loadT := time.Since(t0)
	fmt.Printf("bulk load: %d triples in %.1fms (%.2fM triples/s)\n",
		st.Len(), float64(loadT.Microseconds())/1000,
		float64(st.Len())/loadT.Seconds()/1e6)

	// Pattern matching.
	t0 = time.Now()
	k := 0
	for i := 0; i < 10000; i++ {
		st.ForEach(store.Pattern{S: gen.Res("entity", i%(n/5))}, func(tr lodviz.Triple) bool {
			k++
			return true
		})
	}
	patT := time.Since(t0)
	fmt.Printf("subject lookups: 10000 patterns, %d triples in %.1fms\n",
		k, float64(patT.Microseconds())/1000)

	// SPARQL join.
	q := fmt.Sprintf(`SELECT ?e ?v WHERE { ?e <%s> ?o . ?e <%s> ?v . }`,
		string(gen.Prop("rel0")), string(gen.Prop("num0")))
	t0 = time.Now()
	res, err := sparql.ExecCtx(context.Background(), st, q, sparql.Options{})
	if err != nil {
		fmt.Println("sparql:", err)
		return
	}
	fmt.Printf("BGP join: %d rows in %.1fms\n",
		len(res.Rows), float64(time.Since(t0).Microseconds())/1000)

	// Aggregation query.
	q = fmt.Sprintf(`SELECT ?c (COUNT(?e) AS ?n) (AVG(?v) AS ?avg)
WHERE { ?e <%s> ?c . ?e <%s> ?v . } GROUP BY ?c ORDER BY DESC(?n)`,
		string(gen.Prop("cat0")), string(gen.Prop("num0")))
	t0 = time.Now()
	res, err = sparql.ExecCtx(context.Background(), st, q, sparql.Options{})
	if err != nil {
		fmt.Println("sparql:", err)
		return
	}
	fmt.Printf("GROUP BY aggregate: %d groups in %.1fms\n",
		len(res.Rows), float64(time.Since(t0).Microseconds())/1000)
}
