(** Sharded, CSR-native construction: the million-node pipeline.

    The deployment square is cut into grid tiles of side at least the
    transmission radius; each tile's node bucket is an {e ownership
    set}, and every stage — UDG, MIS clustering, connector elections,
    localized Delaunay — runs per-tile on the {!Netgraph.Pool}
    domains against the immutable CSR snapshot of the previous stage.
    Per-tile results are stitched with deterministic sorted merges, so
    the outputs are the same for any tile count and any job count.  No
    stage touches a mutable Hashtbl graph; every intermediate and
    output is a sealed {!Netgraph.Csr} snapshot.

    This is the library's one construction path ({!Backbone.run} and
    {!Backbone.snapshot} call it); the message-level {!Protocol} is
    the independent oracle the test suite checks it against.

    See DESIGN.md §10 for the tile/halo geometry and the 2-locality
    argument behind per-tile ownership. *)

(** Everything the pipeline produces.  The CSR fields are the
    [Backbone.t]/[Cds.t] graphs in sealed form: [cds]/[icds] span the
    backbone nodes only, the primed variants add dominatee→dominator
    links, [pldel] is the planar LDel(ICDS) backbone (sealed with
    Euclidean arc weights), [pldel'] its primed variant. *)
type snapshot = {
  points : Geometry.Point.t array;
  radius : float;
  owners : int array array;  (** tile ownership sets, ascending ids *)
  udg : Netgraph.Csr.t;
  roles : Mis.role array;
  connectors : Connectors.result;
  ldel : Ldel.csr_parts;
  backbone : bool array;
  cds : Netgraph.Csr.t;
  cds' : Netgraph.Csr.t;
  icds : Netgraph.Csr.t;
  icds' : Netgraph.Csr.t;
  pldel : Netgraph.Csr.t;
  pldel' : Netgraph.Csr.t;
}

(** The CDS family, as in {!Cds.t}: [backbone] marks dominators and
    connectors. *)
type cds_family = {
  backbone : bool array;
  cds : Netgraph.Csr.t;
  cds' : Netgraph.Csr.t;
  icds : Netgraph.Csr.t;
  icds' : Netgraph.Csr.t;
}

(** [cds_family udg roles connectors] seals the four graphs (the
    pipeline's [shard.assemble] stage, which also seals PLDel). *)
val cds_family :
  ?pool:Netgraph.Pool.t ->
  Netgraph.Csr.t ->
  Mis.role array ->
  Connectors.result ->
  cds_family

(** [auto_tiles_per_axis n] is [tiling]'s default per-axis tile count
    for [n] nodes (about 4k nodes per tile).  At 1 the pipeline runs
    one tile, so a pool could split only the UDG and seal passes. *)
val auto_tiles_per_axis : int -> int

(** [tiling points ~radius] is the tile partition of the node ids:
    grid buckets of square tiles whose side is
    [max radius (side / tiles)] — the per-axis count [tiles] (default:
    targets ~4k nodes per tile) is clamped so a tile is never
    narrower than the radius.  Every node appears in exactly one
    tile, ascending ids within a tile.
    @raise Invalid_argument when [radius <= 0] or [tiles < 1]. *)
val tiling :
  ?tiles:int -> Geometry.Point.t array -> radius:float -> int array array

(** [pipeline points ~radius] runs the full sharded chain
    (UDG → MIS → connectors → LDel(ICDS) → assembly) and seals every
    structure.  [pool] fans the per-tile stages out across its
    domains; [tiles] overrides the per-axis tile count; [priority] is
    the MIS priority as in [Mis.compute_with_priority].  [udg]
    substitutes a pre-built snapshot for the UDG stage (the quasi-UDG
    robustness path — its RNG sequence is inherently serial).
    Stage timings land in the [shard.*] spans; tile count and
    populations in the [shard.tiles] gauge / [shard.tile_pop]
    distribution.
    @raise Invalid_argument when [radius <= 0], [tiles < 1], or [udg]
    disagrees with [points] on the node count. *)
val pipeline :
  ?pool:Netgraph.Pool.t ->
  ?tiles:int ->
  ?priority:(int -> int) ->
  ?udg:Netgraph.Csr.t ->
  Geometry.Point.t array ->
  radius:float ->
  snapshot
