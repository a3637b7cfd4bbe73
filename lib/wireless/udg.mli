(** Unit disk graphs.

    Two nodes are linked exactly when their Euclidean distance is at
    most the transmission radius; after the paper's scaling the radius
    is "one unit", but the experiments vary it, so it stays a
    parameter here.  Construction uses the spatial grid, i.e. the same
    neighbor-discovery a node would do by listening locally. *)

(** [build points ~radius] is the unit disk graph of range [radius].
    @raise Invalid_argument when [radius <= 0]. *)
val build : Geometry.Point.t array -> radius:float -> Netgraph.Graph.t

(** [build_csr points ~radius] is the same unit disk graph, emitted
    directly as a {!Netgraph.Csr} snapshot — no intermediate mutable
    graph, so this is the entry point for million-node pipelines.
    With [pool], the per-node count/fill passes fan out across its
    domains; the snapshot is bit-identical to
    [Csr.of_graph (build points ~radius)] for any job count.  Without
    [pool] it counts one [grid.queries] per node, as [build] does.
    @raise Invalid_argument when [radius <= 0]. *)
val build_csr :
  ?pool:Netgraph.Pool.t ->
  Geometry.Point.t array ->
  radius:float ->
  Netgraph.Csr.t

(** [neighborhood points ~radius u ~hops] is the set of nodes within
    [hops] hops of [u] in the UDG (the paper's [N_k(u)], including [u]
    itself), computed from an existing graph. *)
val neighborhood : Netgraph.Graph.t -> int -> hops:int -> int list

(** [is_udg points ~radius g] checks that [g] is exactly the unit disk
    graph of [points] — every in-range pair linked, no out-of-range
    link. *)
val is_udg : Geometry.Point.t array -> radius:float -> Netgraph.Graph.t -> bool

(** [build_quasi rng points ~r_min ~r_max] is the quasi unit disk
    graph, the standard relaxation of the paper's idealized radio
    model (its future-work section): pairs within [r_min] are always
    linked, pairs beyond [r_max] never, and pairs in between are
    linked with probability falling linearly from 1 at [r_min] to 0
    at [r_max].  With [r_min = r_max] this is exactly {!build}.  The
    robustness benches run the paper's construction on these graphs
    to see which guarantees survive a non-ideal radio.
    @raise Invalid_argument unless [0 < r_min <= r_max]. *)
val build_quasi :
  Rand.t ->
  Geometry.Point.t array ->
  r_min:float ->
  r_max:float ->
  Netgraph.Graph.t
