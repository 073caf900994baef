// Package bundling implements the edge-bundling techniques the survey lists
// as the second pillar of large-graph readability (Section 4, refs
// [48,44,63,107,90,34]): hierarchical edge bundling (Holten) routed through
// a cluster tree, and a simplified force-directed edge bundling (FDEB).
// Both report ink-reduction metrics that quantify the benefit.
package bundling

import (
	"math"
)

// Point is a 2-D coordinate.
type Point struct{ X, Y float64 }

// Polyline is a bundled edge path.
type Polyline []Point

// Length returns the polyline's total length.
func (p Polyline) Length() float64 {
	var t float64
	for i := 1; i < len(p); i++ {
		t += dist(p[i-1], p[i])
	}
	return t
}

func dist(a, b Point) float64 { return math.Hypot(a.X-b.X, a.Y-b.Y) }

// Edge connects two node indexes.
type Edge struct{ From, To int }

// HierarchicalBundle routes each edge through the lowest common ancestor
// path of a cluster tree (Holten's hierarchical edge bundling): control
// points are the centroids of the tree nodes between the endpoints, and the
// bundling strength beta in [0,1] interpolates between the straight line
// (0) and the full hierarchy route (1).
//
// parent[i] is the tree parent of node i (-1 for the root); positions give
// each tree node's 2-D location (leaf nodes are the graph nodes).
func HierarchicalBundle(edges []Edge, parent []int, positions []Point, beta float64) []Polyline {
	if beta < 0 {
		beta = 0
	}
	if beta > 1 {
		beta = 1
	}
	depth := make([]int, len(parent))
	for i := range parent {
		d, v := 0, i
		for parent[v] >= 0 {
			v = parent[v]
			d++
			if d > len(parent) {
				break // cycle guard
			}
		}
		depth[i] = d
	}
	out := make([]Polyline, len(edges))
	for ei, e := range edges {
		path := treePath(e.From, e.To, parent, depth)
		ctrl := make(Polyline, len(path))
		for i, v := range path {
			ctrl[i] = positions[v]
		}
		out[ei] = bend(ctrl, beta)
	}
	return out
}

// treePath returns the node sequence from a up to LCA and down to b.
func treePath(a, b int, parent, depth []int) []int {
	var up []int
	x, y := a, b
	for depth[x] > depth[y] {
		up = append(up, x)
		x = parent[x]
	}
	var down []int
	for depth[y] > depth[x] {
		down = append(down, y)
		y = parent[y]
	}
	for x != y {
		up = append(up, x)
		down = append(down, y)
		x = parent[x]
		y = parent[y]
		if x < 0 || y < 0 {
			break
		}
	}
	path := append(up, x)
	for i := len(down) - 1; i >= 0; i-- {
		path = append(path, down[i])
	}
	return path
}

// bend interpolates the control polygon toward the straight line by 1-beta
// (Holten's bundling-strength relaxation).
func bend(ctrl Polyline, beta float64) Polyline {
	if len(ctrl) < 3 || beta >= 1 {
		return ctrl
	}
	first, last := ctrl[0], ctrl[len(ctrl)-1]
	out := make(Polyline, len(ctrl))
	n := float64(len(ctrl) - 1)
	for i, p := range ctrl {
		t := float64(i) / n
		lin := Point{X: first.X + (last.X-first.X)*t, Y: first.Y + (last.Y-first.Y)*t}
		out[i] = Point{
			X: beta*p.X + (1-beta)*lin.X,
			Y: beta*p.Y + (1-beta)*lin.Y,
		}
	}
	return out
}

// FDEBOptions tune force-directed edge bundling.
type FDEBOptions struct {
	// Subdivisions per edge (default 16).
	Subdivisions int
	// Iterations of attraction (default 30).
	Iterations int
	// CompatibilityThreshold in [0,1] gates which edge pairs attract
	// (default 0.6).
	CompatibilityThreshold float64
	// Stiffness scales the spring force (default 0.1).
	Stiffness float64
}

func (o *FDEBOptions) normalize() {
	if o.Subdivisions <= 0 {
		o.Subdivisions = 16
	}
	if o.Iterations <= 0 {
		o.Iterations = 30
	}
	if o.CompatibilityThreshold <= 0 {
		o.CompatibilityThreshold = 0.6
	}
	if o.Stiffness <= 0 {
		o.Stiffness = 0.1
	}
}

// FDEB bundles straight edges by subdividing each into control points and
// letting compatible edges attract each other (Holten & van Wijk 2009,
// simplified: single cycle, precomputed pairwise compatibility).
func FDEB(edges []Edge, positions []Point, opts FDEBOptions) []Polyline {
	opts.normalize()
	m := len(edges)
	lines := make([]Polyline, m)
	for i, e := range edges {
		lines[i] = subdivide(positions[e.From], positions[e.To], opts.Subdivisions)
	}
	if m < 2 {
		return lines
	}
	// Pairwise compatibility (angle × scale × distance), O(m²) — FDEB is for
	// the  visible  edge set, which the abstraction layers keep small.
	compat := make([][]int, m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if edgeCompatibility(positions[edges[i].From], positions[edges[i].To],
				positions[edges[j].From], positions[edges[j].To]) >= opts.CompatibilityThreshold {
				compat[i] = append(compat[i], j)
				compat[j] = append(compat[j], i)
			}
		}
	}
	k := opts.Subdivisions
	for iter := 0; iter < opts.Iterations; iter++ {
		forces := make([][]Point, m)
		for i := range forces {
			forces[i] = make([]Point, k+1)
		}
		for i := 0; i < m; i++ {
			li := lines[i]
			// Spring force between consecutive control points.
			for p := 1; p < k; p++ {
				fx := opts.Stiffness * ((li[p-1].X - li[p].X) + (li[p+1].X - li[p].X))
				fy := opts.Stiffness * ((li[p-1].Y - li[p].Y) + (li[p+1].Y - li[p].Y))
				forces[i][p].X += fx
				forces[i][p].Y += fy
			}
			// Electrostatic attraction to compatible edges' control points.
			for _, j := range compat[i] {
				lj := lines[j]
				for p := 1; p < k; p++ {
					dx := lj[p].X - li[p].X
					dy := lj[p].Y - li[p].Y
					d := math.Hypot(dx, dy)
					if d < 1e-6 {
						continue
					}
					forces[i][p].X += dx / d
					forces[i][p].Y += dy / d
				}
			}
		}
		for i := 0; i < m; i++ {
			for p := 1; p < k; p++ {
				lines[i][p].X += forces[i][p].X
				lines[i][p].Y += forces[i][p].Y
			}
		}
	}
	return lines
}

func subdivide(a, b Point, k int) Polyline {
	out := make(Polyline, k+1)
	for i := 0; i <= k; i++ {
		t := float64(i) / float64(k)
		out[i] = Point{X: a.X + (b.X-a.X)*t, Y: a.Y + (b.Y-a.Y)*t}
	}
	return out
}

// edgeCompatibility combines angle, scale and position compatibility in
// [0,1], as in the FDEB paper.
func edgeCompatibility(p1, p2, q1, q2 Point) float64 {
	v1 := Point{p2.X - p1.X, p2.Y - p1.Y}
	v2 := Point{q2.X - q1.X, q2.Y - q1.Y}
	l1 := math.Hypot(v1.X, v1.Y)
	l2 := math.Hypot(v2.X, v2.Y)
	if l1 < 1e-9 || l2 < 1e-9 {
		return 0
	}
	// Angle.
	ca := math.Abs((v1.X*v2.X + v1.Y*v2.Y) / (l1 * l2))
	// Scale.
	lavg := (l1 + l2) / 2
	cs := 2 / (lavg/math.Min(l1, l2) + math.Max(l1, l2)/lavg)
	// Position.
	m1 := Point{(p1.X + p2.X) / 2, (p1.Y + p2.Y) / 2}
	m2 := Point{(q1.X + q2.X) / 2, (q1.Y + q2.Y) / 2}
	cp := lavg / (lavg + dist(m1, m2))
	return ca * cs * cp
}

// InkRatio compares total bundled ink (approximated by the length of the
// union of drawn segments, discretized to a grid) against the straight-line
// drawing. Values < 1 mean the bundling saved ink — the clutter-reduction
// measure.
func InkRatio(straight, bundled []Polyline, gridCells int) float64 {
	si := inkCells(straight, gridCells)
	bi := inkCells(bundled, gridCells)
	if si == 0 {
		return 1
	}
	return float64(bi) / float64(si)
}

// inkCells rasterizes polylines onto a grid and counts touched cells.
func inkCells(lines []Polyline, gridCells int) int {
	if gridCells < 1 {
		gridCells = 256
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, l := range lines {
		for _, p := range l {
			minX = math.Min(minX, p.X)
			minY = math.Min(minY, p.Y)
			maxX = math.Max(maxX, p.X)
			maxY = math.Max(maxY, p.Y)
		}
	}
	if maxX <= minX {
		maxX = minX + 1
	}
	if maxY <= minY {
		maxY = minY + 1
	}
	cells := map[int]bool{}
	for _, l := range lines {
		for i := 1; i < len(l); i++ {
			// Sample along the segment at sub-cell resolution.
			steps := int(dist(l[i-1], l[i])/((maxX-minX)/float64(gridCells))) + 1
			for s := 0; s <= steps; s++ {
				t := float64(s) / float64(steps)
				x := l[i-1].X + (l[i].X-l[i-1].X)*t
				y := l[i-1].Y + (l[i].Y-l[i-1].Y)*t
				cx := int((x - minX) / (maxX - minX) * float64(gridCells-1))
				cy := int((y - minY) / (maxY - minY) * float64(gridCells-1))
				cells[cy*gridCells+cx] = true
			}
		}
	}
	return len(cells)
}
