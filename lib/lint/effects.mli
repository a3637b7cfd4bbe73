(** Per-function effect summaries over the {!Callgraph}, propagated
    bottom-up over SCCs, plus reachability from
    [Netgraph.Pool.parallel_for] callback sites.  The determinism and
    multicore rules (D001 D002 D003 M001 M002) and the E-rules (E001
    unguarded blocking I/O on a parallel chain, E002 escaping
    exception) are generated here; each finding carries the witness
    call chain from the Pool seed to the offending site.  An effect is
    an exact test on a reference's canonical path
    ({!Callgraph.ref_}). *)

type kind =
  | Random  (** [Stdlib.Random.*] outside lib/wireless/rand.ml *)
  | Clock  (** [Stdlib.Sys.time] / [Unix.gettimeofday] / [Unix.time] *)
  | Unordered_iter
      (** [Stdlib.Hashtbl.iter]/[fold] whose result no enclosing
          application sorts *)
  | Mutable_global  (** names an unguarded toplevel ref/table *)
  | Blocking_io  (** prints, channels, Unix/Thread blocking calls *)
  | Raises  (** [Stdlib.raise] / [raise_notrace] / [failwith] *)
  | Graph_mut  (** [Netgraph.Graph.add_edge] / [remove_edge] *)

val all_kinds : kind list
val bit : kind -> int
val kind_name : kind -> string

(** Sanctioned-home mask: effect bits that do NOT propagate out of
    functions defined at this path (lib/obs and bench mask everything,
    lib/wireless/rand.ml masks [Random], lib/netgraph/graph.ml masks
    [Unordered_iter] and [Graph_mut]). *)
val mask_of_path : string -> int

type site = {
  e_def : int;
  e_kind : kind;
  e_line : int;
  e_col : int;
  e_text : string;
  e_note : string;
}

type analysis = {
  graph : Callgraph.t;
  summaries : int array;  (** per def: transitive effect bits *)
  intrinsic : int array;  (** per def: own effect bits *)
  sites : site list;
  reachable : bool array;
  bfs_parent : int array;
  bfs_root : int array;
}

val analyze : Callgraph.t -> analysis

(** Witness chain (def names, seed first) to a reachable def. *)
val chain_names : analysis -> int -> string list

val seed_site_of : analysis -> int -> Callgraph.seed_site option

type rule_info = {
  id : string;
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;
}

(** The interprocedural rule catalog: D001 D002 D003 M001 M002 E001
    E002. *)
val rules : rule_info list

val find_rule : string -> rule_info option

(** All diagnostics for the analysis, sorted; [only] filters by rule
    id. *)
val findings : ?only:string list -> analysis -> Diag.t list

type stats = {
  s_functions : int;
  s_edges : int;  (** distinct caller->callee pairs, = DOT edge count *)
  s_seeds : int;
  s_reachable : int;
}

val stats : analysis -> stats
val stats_json : stats -> string

(** Effect-colored DOT call graph; parallel-reachable defs live in
    [subgraph cluster_parallel]; one edge line per distinct pair. *)
val to_dot : analysis -> string

(** Human-readable effect set + witness chain for one function (by
    full name or unique suffix), or [None] if unknown. *)
val function_summary : analysis -> string -> string option
