(** The call graph of the repo's own sources, built from the
    compiler's typed trees ({!Typed}).

    Every [Texp_ident] carries the [Path.t] the typechecker resolved,
    so opens, shadowing, functor parameters and recursive bindings
    need no guessing here; the graph only expands module aliases
    (local [module P = Geometry.Point], a functor instance
    [module Inst = Mk (Cfg)] naming [Mk]'s body, and dune's library
    wrappers) and maps each path to the def it names.  Parallel-region
    roots ([seeds]) are the function arguments of
    [Netgraph.Pool.parallel_for]/[parallel_for_slots] applications —
    the argument only, so post-join code stays outside the region. *)

type def_kind =
  | Toplevel  (** unit-, nested-module- or functor-body-level binding *)
  | Init  (** [let () = ...] or a bare toplevel expression *)
  | Local  (** [let ... in] inside a body *)
  | Lambda  (** anonymous [fun] passed to a Pool entry point *)

type def = {
  id : int;
  name : string;
      (** qualified, e.g. [Netgraph.Pool.parallel_for]; bare for
          [Local]; [Parent.<fun:LINE>] for lambdas *)
  kind : def_kind;
  unit_ : int;  (** index into [units] *)
  line : int;
  col : int;
  parent : int;  (** enclosing def id for Local/Lambda, [-1] otherwise *)
  is_function : bool;
  mutable_global : bool;
      (** non-function toplevel binding built with a mutable-state
          constructor ([ref], [Hashtbl.create], [Array.make], ...) *)
  guarded : bool;
      (** the binding uses Atomic/DLS/Mutex, or is annotated
          [(* lint: domain-local ... *)] *)
  has_guard : bool;  (** the body references Atomic/DLS/Mutex *)
  has_try : bool;  (** the body installs an exception handler *)
}

(** One identifier occurrence inside a def's body. *)
type ref_ = {
  r_path : string;
      (** canonical path, e.g. [Stdlib.Random.int] or
          [Netgraph.Graph.add_edge]; a local's bare name *)
  r_text : string;  (** the spelling at the use site *)
  r_def : int;  (** the def it names, or [-1] *)
  r_line : int;
  r_col : int;
  r_sorted : bool;  (** an enclosing application sorts the result *)
}

type seed_site = { site_unit : int; site_line : int; site_col : int }

type t = {
  units : Typed.t array;
  defs : def array;
  refs : ref_ list array;  (** per def id, in source order *)
  calls : (int * int * int) list array;
      (** per def id: (callee id, line, col) in source order *)
  seeds : (int * seed_site) list;
      (** parallel-region root defs with the Pool call site *)
  by_name : (string, int) Hashtbl.t;  (** toplevel defs by full name *)
}

(** Build the graph over a set of units (typically every [lib/**] unit
    plus the library wrappers' generated alias modules). *)
val build : Typed.t list -> t

(** Look a toplevel binding up by full name, falling back to a unique
    [.name] suffix match ([find_def g "bfs"]). *)
val find_def : t -> string -> def option
