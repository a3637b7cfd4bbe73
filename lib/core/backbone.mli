(** The full spanner pipeline: deployment → UDG → clustering →
    connectors → CDS family → localized Delaunay planarization.

    [run] computes every structure the paper evaluates, over one node
    deployment, driven by a {!Config.t}.  This is the library's front
    door: examples, the CLI, the benchmarks and the experiment sweeps
    all consume this record.  Every build runs the one construction
    path, {!Shard.pipeline}; [run] converts its sealed snapshot into
    this Graph-typed record. *)

type t = {
  points : Geometry.Point.t array;
  radius : float;
  jobs : int;
      (** worker-domain budget carried from the config — the default
          parallelism for metrics computed on this instance *)
  udg : Netgraph.Graph.t;
  cds : Cds.t;  (** clustering, connectors, CDS / CDS′ / ICDS / ICDS′ *)
  ldel_icds : Ldel.t;  (** LDel over the induced backbone ICDS *)
  ldel_icds_g : Netgraph.Graph.t;  (** PLDel(ICDS): the planar backbone *)
  ldel_icds' : Netgraph.Graph.t;
      (** planar backbone plus dominatee–dominator edges — the routing
          structure spanning all nodes *)
  planar_csr : Netgraph.Csr.t;
      (** PLDel(ICDS) as a sealed CSR snapshot with Euclidean arc
          weights — the read-optimized form of [ldel_icds_g] *)
}

(** Pipeline configuration — one record instead of a growing pile of
    optional arguments. *)
module Config : sig
  (** The radio model: an ideal unit disk of radius [Config.radius],
      or a quasi unit disk whose links between [r_min] and the radius
      survive with distance-proportional probability (drawn from a
      dedicated RNG seeded by [seed], so a config is reproducible). *)
  type radio = Disk | Quasi of { r_min : float; seed : int64 }

  type t = {
    radius : float;  (** transmission radius, shared by all nodes *)
    priority : (int -> int) option;
        (** clustering order override (smaller wins; default the node
            id, the paper's smallest-ID rule — see {!Cds.of_udg}) *)
    radio : radio;
    sink : Obs.sink option;
        (** when set, {!run} enables the observability layer for the
            duration of the build and emits a snapshot of the global
            obs state afterwards; call [Obs.reset] first for numbers
            isolated to one run *)
    jobs : int;
        (** worker domains (see {!Netgraph.Pool}) for builds whose
            automatic tiling splits the input
            ({!Shard.auto_tiles_per_axis} [> 1]), and the default
            parallelism for metrics over this instance; outputs are the
            same for any value.  Builds without a pool count the
            kernels' predicate and Delaunay work in {!Obs}. *)
  }

  (** radius 60, smallest-ID clustering, ideal disk, no sink,
      [jobs = Netgraph.Pool.default_jobs ()]. *)
  val default : t
end

(** [run cfg points] runs the whole pipeline: {!snapshot}, then a
    thaw of the sealed structures into graphs ({!Netgraph.Csr.to_graph},
    and {!Ldel.of_parts} for LDel(ICDS)).  The UDG need not be
    connected, but the spanner guarantees only hold per component.
    Stage timings land in the [shard.*] obs spans under
    [backbone/shard] (plus [backbone/udg] for the quasi radio), the
    conversion in [backbone/thaw].  For million-node instances prefer
    {!snapshot}, which skips the thaw. *)
val run : Config.t -> Geometry.Point.t array -> t

(** [snapshot cfg points] runs {!Shard.pipeline} under [cfg] — jobs,
    radio, priority and sink are honored as in {!run}, with auto
    tiling — and returns the sealed snapshot without ever
    materializing a mutable graph.  This is the front door for
    million-node instances. *)
val snapshot : Config.t -> Geometry.Point.t array -> Shard.snapshot

(** [build points ~radius] is
    [run { Config.default with radius; priority }] — the historical
    front door, kept so existing callers compile.  New code should
    construct a {!Config.t} and call {!run} (or {!snapshot} at
    scale). *)
val build :
  ?priority:(int -> int) -> Geometry.Point.t array -> radius:float -> t

(** [ldel_full t] lazily computes LDel/PLDel over the whole UDG with
    {!Ldel.build} — the "LDel" baseline row of Table I (not part of
    the backbone pipeline, so it is not built eagerly). *)
val ldel_full : t -> Ldel.t

(** {1 Structure registry}

    The named graphs the evaluation reports on, in Table I order: UDG,
    RNG, GG, LDel(V), CDS, CDS′, ICDS, ICDS′, LDel(ICDS), LDel(ICDS′).
    [`Spans_all] says whether the structure connects all nodes (only
    then are stretch factors defined).  The registry is the single
    source of that list: the CLI, the experiment sweeps and the bench
    harness all consume it rather than maintaining their own copies. *)

val registry :
  (string * (t -> Netgraph.Graph.t) * [ `Spans_all | `Backbone_only ]) list

(** Registry names, in Table I order. *)
val names : string list

(** [structures t] materializes the whole registry on one instance.
    The three materializing functions run in an [Obs] span
    [structures] with one child span per entry, named after it. *)
val structures :
  t -> (string * Netgraph.Graph.t * [ `Spans_all | `Backbone_only ]) list

(** The six backbone-family rows (CDS … LDel(ICDS′)) — Figure 8's
    structures. *)
val backbone_structures :
  t -> (string * Netgraph.Graph.t * [ `Spans_all | `Backbone_only ]) list

(** The spanning backbone rows (CDS′, ICDS′, LDel(ICDS′)) — the
    structures whose stretch Figures 9 and 11 track. *)
val spanning_backbone_structures :
  t -> (string * Netgraph.Graph.t * [ `Spans_all | `Backbone_only ]) list
