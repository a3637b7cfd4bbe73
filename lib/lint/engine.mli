(** Walking, loading, per-unit linting, interprocedural analysis,
    suppression and baseline plumbing.

    The tree walk covers [lib], [bin], [bench], [examples] and [test]
    under a root, skipping [_build], [fixtures] and dot-directories;
    directory entries are visited in sorted order so reports are
    bit-identical across machines.  Every scanned [.ml] is read in its
    compiled form ({!Typed}): build with [dune build @check] first.
    Local rules ({!Rules.all}) run per unit; the interprocedural layer
    ({!Callgraph} + {!Effects}) runs once over lib/**. *)

type result = {
  findings : Diag.t list;  (** unsuppressed, after the baseline; sorted *)
  grandfathered : (Diag.t * string) list;
      (** baselined findings with the baseline entry's reason *)
  suppressed : int;  (** silenced by inline [(* lint: disable ... *)] *)
  files : int;  (** .ml files scanned *)
  unused_baseline : Baseline.entry list;
      (** stale entries whose budget was not fully consumed *)
}

(** Repo-relative paths ('/'-separated) of the .ml and .mli files
    under [root]. *)
val scan_files : string -> string list

(** The compiled units of every scanned [.ml] under [root] (only
    [lib/**] with [lib_only]), plus the generated library alias
    modules; raises {!Typed.Stale} naming the first file whose [.cmt]
    is missing or out of date. *)
val load : ?lib_only:bool -> string -> Typed.t list

(** [lint_unit u] runs the given local rules (default: {!Rules.all})
    over one unit, applying inline suppressions.  The unit's [path]
    scopes the rules and [has_mli] feeds H001.  Returns sorted
    findings and the count of inline-suppressed ones.
    Interprocedural rules need the whole project: see
    {!lint_project}. *)
val lint_unit : ?rules:Rules.rule list -> Typed.t -> Diag.t list * int

(** [lint_project units] lints a set of units: local rules on every
    source unit, plus the Callgraph/Effects pass over the [lib/**]
    units.  [only] filters by rule id across both layers.  Returns
    (sorted findings, inline-suppressed count, number of .ml files). *)
val lint_project :
  ?only:string list -> Typed.t list -> Diag.t list * int * int

(** Lint the whole tree under [root] and net off [baseline]; [only]
    filters by rule id.  Raises {!Typed.Stale} like {!load}. *)
val run :
  ?only:string list -> ?baseline:Baseline.entry list -> string -> result
