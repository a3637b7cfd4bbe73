(** Backbone structures: CDS, CDS′, ICDS, ICDS′.

    From the clustering and the connector elections the paper derives
    four graphs, all on the full node set:

    - [CDS]: the backbone proper — exactly the dominator–connector
      links installed by Algorithm 1.  Bounded degree, sparse, hop- and
      length-spanner between backbone nodes, but not planar in general.
    - [CDS′]: CDS plus an edge from every dominatee to each of its
      dominators — the structure whose hop/length stretch the paper
      measures (Lemmas 5 and 6).
    - [ICDS]: the unit disk graph induced on the backbone nodes
      (dominators and connectors): every UDG link between backbone
      nodes.  CDS ⊆ ICDS.
    - [ICDS′]: ICDS plus the dominatee–dominator edges.

    The constructors are adapters over {!Shard.cds_family}, the one
    assembly of the four graphs. *)

type t = {
  roles : Mis.role array;
  connectors : Connectors.result;
  backbone : bool array;  (** dominator or connector *)
  cds : Netgraph.Graph.t;
  cds' : Netgraph.Graph.t;
  icds : Netgraph.Graph.t;
  icds' : Netgraph.Graph.t;
}

(** [thaw roles connectors family] converts a sealed family. *)
val thaw : Mis.role array -> Connectors.result -> Shard.cds_family -> t

(** [build udg roles connectors] assembles all four graphs, for any
    connector selection of {!Connectors}. *)
val build : Netgraph.Graph.t -> Mis.role array -> Connectors.result -> t

(** Convenience: cluster, elect connectors and assemble in one call.
    [priority] overrides the clustering order (smaller wins; default
    the node id, the paper's smallest-ID rule) — used by alternative
    clusterings such as {!Energy}'s rotation. *)
val of_udg : ?priority:(int -> int) -> Netgraph.Graph.t -> t

(** Backbone node ids, increasing. *)
val backbone_nodes : t -> int list

(** [dominator_of t u] is [u]'s smallest-id dominator when [u] is a
    dominatee, or [u] itself when it is a backbone node.  This is the
    gateway used by hierarchical routing. *)
val dominator_of : t -> Netgraph.Graph.t -> int -> int
