(* The rule catalog.  Each rule is a pure function from a compiled
   compilation unit to findings; scoping (which directories a rule
   patrols) lives with the rule so the catalog is self-describing.
   Names, instance types and application shapes come from the typed
   tree, so a rule matches exactly the identifier the compiler
   resolved, not a spelling. *)

open Typedtree

type ctx = { u : Typed.t; exprs : expression list }

type rule = {
  id : string;
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;
  check : ctx -> Diag.t list;
}

(* ---------- shared helpers ---------- *)

let expressions (s : structure) =
  let acc = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          acc := e :: !acc;
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it s;
  List.rev !acc

let ctx_of_unit u = { u; exprs = expressions u.Typed.structure }

let finding ctx rule severity (line, col) message =
  { Diag.rule; severity; file = ctx.u.path; line; col; message;
    excerpt = Typed.excerpt ctx.u line }

let under dir path = Typed.starts_with (dir ^ "/") path

let in_any dirs path = List.exists (fun d -> under d path) dirs

(* [Some (path, written)] for an identifier: the resolved path and
   the spelling at the use site. *)
let ident e =
  match e.exp_desc with
  | Texp_ident (p, lid, _) ->
    Some (Path.name p, String.concat "." (Longident.flatten lid.txt))
  | _ -> None

let ident_is names e =
  match ident e with Some (p, _) -> List.mem p names | None -> false

let pos e = Typed.pos e.exp_loc

(* Every application [f args] whose head is one of [names]. *)
let applications names ctx =
  List.filter_map
    (fun e ->
      match e.exp_desc with
      | Texp_apply (f, args) when ident_is names f ->
        Some (f, List.filter_map snd args)
      | _ -> None)
    ctx.exprs

let idents names ctx =
  List.filter_map
    (fun e ->
      match ident e with
      | Some (p, written) when List.mem p names -> Some (e, p, written)
      | _ -> None)
    ctx.exprs

(* The determinism and multicore rules (D001 D002 D003 M001 M002) and
   the parallel-region E-rules are interprocedural and live in
   [Effects]; this catalog keeps the purely local, single-file rules. *)

(* ---------- F001: polymorphic compare / min / max ---------- *)

let float_scope = [ "lib/geometry"; "lib/netgraph"; "lib/delaunay" ]

let at_float e =
  match Types.get_desc e.exp_type with
  | Types.Tarrow (_, arg, _, _) -> (
    match Types.get_desc arg with
    | Types.Tconstr (p, [], _) -> Path.same p Predef.path_float
    | _ -> false)
  | _ -> false

let f001_check ctx =
  if not (in_any float_scope ctx.u.path) then []
  else
    idents [ "Stdlib.compare"; "Stdlib.min"; "Stdlib.max" ] ctx
    |> List.filter (fun (e, _, _) -> at_float e)
    |> List.map (fun (e, p, written) ->
           finding ctx "F001" Diag.Error (pos e)
             (if p = "Stdlib.compare" then
                "polymorphic compare in float-bearing code; use Float.compare \
                 / Int.compare or a typed comparator"
              else
                "polymorphic " ^ written
                ^ " applied to a float; use Float.min / Float.max"))

(* ---------- F002: exact float-literal equality ---------- *)

let float_constant e =
  match e.exp_desc with
  | Texp_constant (Const_float _) -> true
  | _ -> ident_is [ "Stdlib.nan" ] e

let f002_check ctx =
  if
    (not (in_any float_scope ctx.u.path))
    || ctx.u.path = "lib/geometry/predicates.ml"
  then []
  else
    applications [ "Stdlib.="; "Stdlib.<>" ] ctx
    |> List.filter (fun (_, args) -> List.exists float_constant args)
    |> List.map (fun (f, _) ->
           finding ctx "F002" Diag.Error (pos f)
             "exact float equality against a literal; use Float.equal, a \
              sign test, or an exact predicate in Geometry.Predicates")

(* ---------- H001: every library module has an interface ---------- *)

let h001_check ctx =
  if under "lib" ctx.u.path && not ctx.u.has_mli then
    [
      finding ctx "H001" Diag.Error (1, 1)
        "library module without an .mli: every lib/**/*.ml commits to an \
         interface";
    ]
  else []

(* ---------- H002: Obj.magic ---------- *)

let h002_check ctx =
  idents [ "Stdlib.Obj.magic" ] ctx
  |> List.map (fun (e, _, _) ->
         finding ctx "H002" Diag.Error (pos e)
           "Obj.magic defeats the type system; find a typed representation")

(* ---------- H003: silent dead ends ---------- *)

let has_comment ctx line = Typed.find_sub "(*" (Typed.excerpt ctx.u line) <> None

let h003_check ctx =
  if under "test" ctx.u.path then []
  else begin
    let asserts =
      List.filter_map
        (fun e ->
          match e.exp_desc with
          | Texp_assert ({ exp_desc = Texp_construct (_, c, []); _ }, _)
            when c.Types.cstr_name = "false"
                 && not (has_comment ctx (fst (pos e))) ->
            Some
              (finding ctx "H003" Diag.Warning (pos e)
                 "bare 'assert false': state why the branch is unreachable \
                  in a same-line comment, or raise a descriptive exception")
          | _ -> None)
        ctx.exprs
    in
    let empty_failwith =
      applications [ "Stdlib.failwith" ] ctx
      |> List.filter_map (fun (f, args) ->
             match args with
             | [ { exp_desc = Texp_constant (Const_string (s, _, _)); _ } ]
               when String.trim s = "" ->
               Some
                 (finding ctx "H003" Diag.Warning (pos f)
                    "failwith with an empty message explains nothing; say \
                     what failed")
             | _ -> None)
    in
    asserts @ empty_failwith
  end

(* ---------- O001: metric name literals follow the naming convention ---------- *)

let o001_valid name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.')
       name

let o001_check ctx =
  (* only literal registrations are checkable; a computed name
     (Printf.sprintf ...) is skipped *)
  applications [ "Obs.counter"; "Obs.dist"; "Obs.gauge"; "Obs.histogram" ] ctx
  |> List.filter_map (fun (_, args) ->
         match args with
         | ({ exp_desc = Texp_constant (Const_string (name, _, _)); _ } as a)
           :: _
           when not (o001_valid name) ->
           Some
             (finding ctx "O001" Diag.Error (pos a)
                (Printf.sprintf
                   "metric name %S breaks the dotted lowercase convention \
                    ([a-z0-9_.]+); registry keys sort into reports and \
                    become /metrics sample names"
                   name))
         | _ -> None)

(* ---------- O002: protocol trace events only via Distsim.Stamp ---------- *)

let o002_check ctx =
  (* Raw [Obs.Trace.send]/[Obs.Trace.deliver] calls outside the
     stamping helper fork the Lamport clocks and desynchronize the
     happens-before DAG.  lib/distsim hosts Stamp (the single writer)
     and lib/obs defines the hooks; tests exercising the raw hooks are
     out of scope. *)
  if not (in_any [ "lib"; "bin" ] ctx.u.path) then []
  else if in_any [ "lib/distsim"; "lib/obs" ] ctx.u.path then []
  else
    idents [ "Obs.Trace.send"; "Obs.Trace.deliver" ] ctx
    |> List.map (fun (e, _, written) ->
           finding ctx "O002" Diag.Error (pos e)
             (Printf.sprintf
                "raw %s forks the Lamport clocks; protocol Send/Deliver \
                 events must be emitted through Distsim.Stamp (the single \
                 stamping writer)"
                written))

(* ---------- catalog ---------- *)

let all =
  [
    {
      id = "F001";
      family = "float-robustness";
      severity = Diag.Error;
      title = "no polymorphic compare on floats";
      doc =
        "Polymorphic compare/min/max instantiated at float in lib/geometry, \
         lib/netgraph and lib/delaunay boxes its arguments, falls through \
         to C, and orders nan inconsistently with (<).  Use Float.compare \
         / Int.compare or a typed comparator.";
      check = f001_check;
    };
    {
      id = "F002";
      family = "float-robustness";
      severity = Diag.Error;
      title = "no exact float-literal equality";
      doc =
        "x = 0. style comparisons are exact and silently false for nan; \
         outside lib/geometry/predicates.ml (whose expansion arithmetic \
         makes zero tests exact) use Float.equal, a sign test, or an exact \
         predicate.";
      check = f002_check;
    };
    {
      id = "H001";
      family = "hygiene";
      severity = Diag.Error;
      title = "every library module has an .mli";
      doc =
        "An .mli per lib/**/*.ml keeps the dependency surface explicit and \
         lets warnings catch dead code.";
      check = h001_check;
    };
    {
      id = "H002";
      family = "hygiene";
      severity = Diag.Error;
      title = "no Obj.magic";
      doc = "Obj.magic hides type errors until runtime memory corruption.";
      check = h002_check;
    };
    {
      id = "H003";
      family = "hygiene";
      severity = Diag.Warning;
      title = "no silent dead ends";
      doc =
        "A bare 'assert false' (no same-line comment) or an empty failwith \
         message turns an impossible state into an undiagnosable crash; \
         say why the branch cannot happen.";
      check = h003_check;
    };
    {
      id = "O001";
      family = "hygiene";
      severity = Diag.Error;
      title = "metric name literals follow the dotted convention";
      doc =
        "Obs.counter/dist/gauge/histogram name literals must be nonempty \
         dotted lowercase ([a-z0-9_.]+): registry keys sort into every \
         report and become Prometheus sample names on /metrics, where a \
         typo'd or CamelCase name silently forks a new time series.";
      check = o001_check;
    };
    {
      id = "O002";
      family = "hygiene";
      severity = Diag.Error;
      title = "protocol trace events flow through Distsim.Stamp";
      doc =
        "Obs.Trace.send / Obs.Trace.deliver carry Lamport stamps that only \
         Distsim.Stamp maintains; constructing protocol events anywhere \
         else (outside lib/distsim and the lib/obs definitions) forks the \
         clocks and corrupts the happens-before DAG Obs.Causal rebuilds.";
      check = o002_check;
    };
  ]

let find id = List.find_opt (fun r -> r.id = id) all
