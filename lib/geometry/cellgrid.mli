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
    [Core.Shard]; with {!covering_side} over the edge midpoints it
    yields the crossing candidates of [Netgraph.Planarity], and over
    triangle bounding-box min-corners the overlapping triangle pairs
    of [Core.Ldel]'s Algorithm 3. *)

type t

(** [create ~cell_size points] buckets the points into a grid of
    square cells covering their bounding box.
    @raise Invalid_argument when [cell_size <= 0]. *)
val create : cell_size:float -> Point.t array -> t

(** [covering_side ~extent keys] is a cell side for {!create} over
    [keys] such that two keys whose coordinates differ by at most
    [extent] in x and in y always land in the same or adjacent cells,
    so {!iter_near} visits every such pair.  It is [extent] padded by
    1e-9 of itself and 1e-9 of the largest key coordinate (far above
    the few ulps rounding can shift a cell index), raised to
    [span / (1 + sqrt m)] for [m] keys spread over [span] so the grid
    never exceeds O(m) cells; larger cells only add candidates.
    Positive even when every key coincides. *)
val covering_side : extent:float -> Point.t array -> float

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
