(** The local rule catalog: single-file project invariants checked on
    a unit's typed tree.  The determinism and multicore rules (D001
    D002 D003 M001 M002) and the parallel-region E-rules are
    interprocedural and live in {!Effects}; this catalog holds the
    rules a single compilation unit can answer.

    Families (see DESIGN.md §9 for the rationale per rule):
    - float-robustness: F001 no [Stdlib.compare]/[min]/[max]
      instantiated at [float] in lib/geometry, lib/netgraph,
      lib/delaunay; F002 no [=]/[<>] applied to a float constant or
      [nan] outside predicates.ml.
    - hygiene: H001 every lib module has an .mli; H002 no
      [Stdlib.Obj.magic]; H003 no bare [assert false] / empty
      [failwith]; O001 metric name literals follow the dotted
      convention; O002 protocol trace events flow through
      [Distsim.Stamp]. *)

type ctx = {
  u : Typed.t;  (** its [path] scopes the rules, [has_mli] feeds H001 *)
  exprs : Typedtree.expression list;  (** every expression of the unit *)
}

val ctx_of_unit : Typed.t -> ctx

type rule = {
  id : string;  (** e.g. ["F001"] *)
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;  (** rationale, reused by [--list-rules] and the docs *)
  check : ctx -> Diag.t list;
}

(** All local rules, in catalog order (stable, id-sorted). *)
val all : rule list

val find : string -> rule option
