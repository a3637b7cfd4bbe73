(** Geometric planarity of embedded graphs.

    A network topology drawn with straight-line links is planar when no
    two links cross; routing schemes such as GPSR's perimeter mode are
    only correct on such drawings.  These checks are geometric (they
    use the node positions), not abstract graph planarity.

    {2 Crossing detection}

    The three crossing checks share one candidate enumerator.  It puts
    every edge into a {!Geometry.Cellgrid} keyed by the edge's
    midpoint, with a cell side of at least the longest edge L.  If two
    segments of length at most L properly cross at p, each midpoint is
    within L/2 of p, so the midpoints are within L of each other and
    fall in the same or adjacent cells: each edge is tested only
    against the later edges of its 3x3 cell block, and the exact
    {!Geometry.Segment.properly_intersect} decides every candidate.
    The answer is therefore exact, not a filter.

    - {b Margin.}  The cell side is L padded by 1e-9 of L and 1e-9 of
      the largest midpoint coordinate, far above the few ulps that
      rounding in lengths, midpoints and cell indices can shift a
      midpoint, so rounding never splits a true pair.  When every
      edge is short compared with the spread of the graph the side is
      raised to [span / (1 + sqrt m)], which caps the grid at O(m)
      cells; larger cells only add candidates.
    - {b Complexity.}  O(m + c + k log k) time and O(m) space beyond
      the result, for m edges, c candidate pairs and k crossings.  On
      graphs whose edges are no longer than the typical spacing of
      their midpoints (every structure built here: UDG, LDel, PLDel
      and the backbone graphs, whose edges are at most one radius) c
      is O(m): PLDel(ICDS) of a uniform 20k-node deployment tests
      ~39 candidate pairs per edge.  A few very long edges make the
      cells large and the scan approach the all-pairs O(m^2); they
      never make it miss a crossing.
    - {b Order.}  Pairs are reported as [((u1, v1), (u2, v2))] with
      [(u1, v1)] before [(u2, v2)] in {!View.edges} order, sorted by
      the first edge's position and then the second's — the order of
      an all-pairs scan over [View.edges].
    - {b Instrumentation.}  Each call runs in the [planarity] span
      and adds the number of pairs it tested to the
      [planarity.candidates] counter.

    The [_v] forms accept a read-only {!View.t} ({!Graph.t} or
    {!Csr.t}); the [Graph]-typed functions are thin adapters. *)

val crossing_pairs_v :
  View.t -> Geometry.Point.t array -> ((int * int) * (int * int)) list

val crossing_count_v : View.t -> Geometry.Point.t array -> int
val is_planar_v : View.t -> Geometry.Point.t array -> bool
val euler_bound_ok_v : View.t -> bool

(** [crossing_pairs g points] lists every pair of edges that properly
    cross (edges sharing an endpoint never count).  Each pair is
    reported once as [((u1, v1), (u2, v2))]. *)
val crossing_pairs :
  Graph.t -> Geometry.Point.t array -> ((int * int) * (int * int)) list

(** Number of properly crossing edge pairs (the length of
    {!crossing_pairs}). *)
val crossing_count : Graph.t -> Geometry.Point.t array -> int

(** [is_planar g points] holds when no two edges properly cross; it
    stops at the first edge found with a crossing. *)
val is_planar : Graph.t -> Geometry.Point.t array -> bool

(** [euler_bound_ok g] checks the planar edge bound [m <= 3n - 6]
    (trivially true for [n < 3]) — a cheap necessary condition. *)
val euler_bound_ok : Graph.t -> bool
