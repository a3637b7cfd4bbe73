(** Localized Delaunay triangulation (Algorithms 2 and 3).

    [LDel¹(G)] is the planar-izable proxy for the true Delaunay
    triangulation that each node can compute from 1-hop information:
    its edges are the Gabriel edges of [G] plus the edges of every
    triangle [uvw] whose circumcircle is empty of the 1-hop
    neighborhoods of all three corners (equivalently: [uvw] is a
    Delaunay triangle of [Del(N₁(x))] for each corner [x]) and whose
    edges all fit within the transmission radius.

    [LDel¹] can still contain crossing triangles from distant
    neighborhoods; Algorithm 3 removes, for every intersecting pair,
    any triangle whose circumcircle contains a corner of the other —
    the survivors plus the Gabriel edges form the planar graph
    [PLDel(G)] the paper routes on.

    One kernel, {!build_csr}, computes both on a CSR snapshot; it is
    the stage {!Shard.pipeline} runs.  {!build} and {!build_k} are
    adapters over it for callers that hold a {!Netgraph.Graph.t}.  The
    message-level protocol in {!Protocol} is the independent oracle:
    it computes the same triangles and Gabriel edges from what its
    messages carry (asserted by the integration and shard tests). *)

type t = {
  ldel1 : Netgraph.Graph.t;  (** LDel¹: Gabriel edges + triangle edges *)
  planar : Netgraph.Graph.t;
      (** PLDel: Gabriel edges + surviving triangle edges *)
  gabriel_edges : (int * int) list;  (** with [u < v], sorted *)
  triangles : (int * int * int) list;
      (** accepted 1-localized Delaunay triangles, sorted triples *)
  kept_triangles : (int * int * int) list;
      (** triangles surviving planarization *)
}

(** [build g points ~radius] computes LDel¹ and PLDel of the unit disk
    graph [g] (edges of [g] must join nodes at distance [<= radius];
    nodes with no incident edge are simply isolated — this is how the
    construction runs on the induced backbone ICDS, whose vertex set
    is only the dominators and connectors).  An adapter:
    [of_parts n (build_csr (Csr.of_graph g) points ~radius)]. *)
val build : Netgraph.Graph.t -> Geometry.Point.t array -> radius:float -> t

(** The three edge/triangle lists of a build, without the materialized
    graphs — what the sharded pipeline computes and stitches.  Field
    for field equal to the corresponding fields of {!t}. *)
type csr_parts = {
  p_gabriel : (int * int) list;
  p_triangles : (int * int * int) list;
  p_kept : (int * int * int) list;
}

(** [build_csr csr points ~radius] computes LDel¹ and PLDel of the
    (unit disk or induced backbone) graph [csr] as lists: per-node
    local Delaunay triangles (Algorithm 2, each node fed its row in
    ascending id order), min-corner-owned acceptance, owner-side
    Gabriel filtering, and the flat, bucketed Algorithm 3 of
    {!planarize} with CSR adjacency as visibility.  With [owners]
    (tile partition of the node ids) and [pool] all four stages fan
    out across the pool's domains; per-tile results merge by
    deterministic sorts, so the output is the same for any tiling and
    any job count.  Without [pool] the predicate and Delaunay
    counters of {!Obs} count as usual; with one, the registry is
    quiesced for the call, since its cells are single-writer. *)
val build_csr :
  ?pool:Netgraph.Pool.t ->
  ?owners:int array array ->
  Netgraph.Csr.t ->
  Geometry.Point.t array ->
  radius:float ->
  csr_parts

(** [of_parts n parts] materializes the two graphs from the lists. *)
val of_parts : int -> csr_parts -> t

(** [build_k g points ~radius ~k] is the k-localized Delaunay graph
    [LDel^k]: triangles must have circumcircles empty of every
    corner's k-hop neighborhood.  Li et al. prove [LDel^k] is planar
    outright for [k >= 2] (the [planar]/[ldel1] fields then coincide —
    the test-suite verifies this empirically); larger [k] trades
    communication for fewer crossings.  It runs {!build_csr}'s kernel
    with each node's local triangulation fed its k-hop neighborhood
    ([Wireless.Udg.neighborhood], ascending ids);
    [build_k ~k:1 = build].
    @raise Invalid_argument when [k < 1]. *)
val build_k :
  Netgraph.Graph.t -> Geometry.Point.t array -> radius:float -> k:int -> t

(** [local_triangles_of_neighborhood ~me ~me_pos ~nbrs] is the set of
    triangles incident to [me] in [Del(N₁(me))] — what node [me]
    computes in Algorithm 2 — as normalized sorted triples.  The
    protocol and {!build_csr} both call it with the same data, so
    their builds coincide by construction. *)
val local_triangles_of_neighborhood :
  me:int ->
  me_pos:Geometry.Point.t ->
  nbrs:(int * Geometry.Point.t) list ->
  (int * int * int) list

(** [triangle_fits points ~radius t] checks all three links fit the
    transmission range. *)
val triangle_fits :
  Geometry.Point.t array -> radius:float -> int * int * int -> bool

(** [planarize g points tris] is Algorithm 3: for every pair of
    intersecting triangles whose corners can hear of each other in
    [g] (1-hop gathering), remove any whose circumcircle contains a
    corner of the other; returns the survivors in input order.

    {b Flat kernel.}  The triangles are copied once into a flat
    [int array] (three corner ids each), an orientation per triangle
    and four [float array]s of bounding boxes; each pair is then
    decided by loops that call [Predicates.orient2d] and
    [Predicates.incircle] on corner ids, so no list, segment or
    closure is built per pair.  An edge pair that shares an endpoint
    id is rejected before any predicate: orient2d with a repeated
    point is exactly [Collinear] (both products of the determinant
    are exact zeros), so such a pair can never properly intersect —
    the decision is the one {!triangles_intersect} makes, without the
    exact-arithmetic fallback those degenerate calls used to take.

    {b Candidates.}  Triangles are bucketed by bbox min-corner in a
    [Geometry.Cellgrid] whose side covers the longest bbox side L
    (padded as [Cellgrid.covering_side] describes).  Two overlapping
    bboxes have min-corners within L in x and in y, so each triangle
    is tested only against the later triangles of its 3x3 cell block,
    and pairs are still filtered by exact bbox overlap: the kept list
    equals the all-pairs scan's.  O(T + c) time for T triangles and c
    candidate pairs; c is O(T) on the triangles built here, whose
    sides are at most one radius. *)
val planarize :
  Netgraph.Graph.t ->
  Geometry.Point.t array ->
  (int * int * int) list ->
  (int * int * int) list

(** [circumcircle_contains points t v] holds when node [v] (not a
    corner) lies strictly inside [t]'s circumcircle.  This and
    {!triangles_intersect} are tuple wrappers over {!planarize}'s
    kernel predicates. *)
val circumcircle_contains :
  Geometry.Point.t array -> int * int * int -> int -> bool

(** [triangles_intersect points t1 t2] decides whether two triangles
    overlap improperly: an edge of one properly crosses an edge of the
    other, or a non-shared corner lies strictly inside the other
    triangle.  Triangles merely sharing a vertex or an edge do not
    intersect. *)
val triangles_intersect :
  Geometry.Point.t array -> int * int * int -> int * int * int -> bool
