(** Flat, immutable spatial buckets (counting sort; no Hashtbl, no
    {!Obs}).

    The spatial substrate of the shard pipeline and the planarity
    checker: built once from a point array, then read concurrently
    from pool worker domains — unlike {!Grid}, whose Hashtbl buckets
    and Obs-instrumented queries must stay on the calling domain.
    Buckets hold point ids in ascending order, so every iteration here
    is deterministic.  Its only dependency is {!Point}.

    With [cell_size] = the transmission radius this drives CSR-native
    UDG construction ([Wireless.Udg.build_csr]); with [cell_size] = the
    tile side its buckets are exactly the tile ownership sets of
    [Core.Shard]; with [cell_size] >= the longest edge, over the edge
    midpoints, it yields the crossing candidates of
    [Netgraph.Planarity]. *)

type t

(** [create ~cell_size points] buckets the points into a grid of
    square cells covering their bounding box.
    @raise Invalid_argument when [cell_size <= 0]. *)
val create : cell_size:float -> Point.t array -> t

(** Total number of cells ([cols * rows], at least 1). *)
val cells : t -> int

val cols : t -> int
val rows : t -> int

(** Bucket index of node [u]. *)
val cell_of : t -> int -> int

(** Bucket index of an arbitrary position (clamped to the grid). *)
val cell_at : t -> Point.t -> int

(** [iter_cell t k f] visits bucket [k]'s nodes, ascending ids. *)
val iter_cell : t -> int -> (int -> unit) -> unit

(** Bucket [k]'s nodes as a fresh array, ascending ids. *)
val nodes_of : t -> int -> int array

val population : t -> int -> int

(** [iter_near t u f] visits every node of the 3x3 cell block around
    [u]'s cell (including [u] itself) — the candidate set for any
    within-[cell_size] range query. *)
val iter_near : t -> int -> (int -> unit) -> unit

(** [iter_ring_cells t k r f] visits the cell indices at Chebyshev
    distance exactly [r] from cell [k] ([r = 0]: just [k]) — halo
    enumeration for the tile tests. *)
val iter_ring_cells : t -> int -> int -> (int -> unit) -> unit
