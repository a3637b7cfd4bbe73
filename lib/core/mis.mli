(** Clustering: maximal independent set by the smallest-ID rule.

    The paper's clustering phase (after Baker–Ephremides and Alzoubi)
    marks a white node as dominator when it has the smallest ID among
    its white neighbors; its white neighbors then become dominatees.
    The fixpoint of that rule is a maximal independent set, hence a
    dominating set.  {!compute_csr} is the one implementation (the
    stage {!Shard.pipeline} runs); {!compute} and
    {!compute_with_priority} are adapters over it for callers that
    hold a {!Netgraph.Graph.t}.  {!Protocol} runs the same rule as a
    distributed message-passing protocol and is the independent
    oracle: it must produce the identical set. *)

type role = Dominator | Dominatee

(** [compute g] runs the smallest-ID clustering to fixpoint and
    returns each node's role.  Node ids double as the protocol's
    distinct IDs.  [compute_csr (Csr.of_graph g)]. *)
val compute : Netgraph.Graph.t -> role array

(** Same rule with an arbitrary total order on nodes: [priority u]
    smaller means more eligible; ties broken by id.  [compute] is
    [compute_with_priority g ~priority:(fun u -> u)]. *)
val compute_with_priority :
  Netgraph.Graph.t -> priority:(int -> int) -> role array

(** [compute_csr csr] runs the rule on a CSR snapshot.  [owners]
    partitions the node ids into tiles (default: one tile holding
    every node); with [pool], each pass elects per-tile winners and
    applies them in two barrier-separated phases across the pool's
    domains.  Winners within a pass are pairwise non-adjacent, so the
    result is the same for any tiling and any job count.  [priority]
    is as in {!compute_with_priority} (default: the node id). *)
val compute_csr :
  ?pool:Netgraph.Pool.t ->
  ?owners:int array array ->
  ?priority:(int -> int) ->
  Netgraph.Csr.t ->
  role array

(** Dominator ids, increasing. *)
val dominators : role array -> int list

(** [dominators_of g roles u] is the list of dominators adjacent to
    [u] ([u]'s "Dominators" link list); empty when [u] is itself a
    dominator. *)
val dominators_of : Netgraph.Graph.t -> role array -> int -> int list

(** [two_hop_dominators g roles u] is [u]'s "2HopDominators" list:
    dominators at UDG-hop distance exactly two from [u]. *)
val two_hop_dominators : Netgraph.Graph.t -> role array -> int -> int list

(** Validation: no two dominators adjacent. *)
val is_independent : Netgraph.Graph.t -> role array -> bool

(** Validation: every dominatee has an adjacent dominator. *)
val is_dominating : Netgraph.Graph.t -> role array -> bool

(** Validation: no dominatee could be promoted (maximality). *)
val is_maximal : Netgraph.Graph.t -> role array -> bool
