(* The call graph of the repo's own sources, read off the compiler's
   typed trees.  Every identifier carries the exact [Path.t] the
   typechecker resolved (opens, shadowing and functor parameters are
   already decided), so the graph only has to name things: a def is a
   value binding (toplevel, nested-module, functor-body or local) or a
   seeded Pool callback lambda, and a reference is a [Texp_ident] whose
   path, after module aliases are expanded, names a def.

   Paths are kept in the display form the reports print: a unit is
   named by its source path ([lib/netgraph/pool.ml] is [Netgraph.Pool],
   the library root [lib/obs/obs.ml] is [Obs]), and dune's mangled
   unit names ([Netgraph__Pool]) are mapped back the same way, so the
   aliases dune generates for a wrapped library resolve to the unit
   they name. *)

open Typedtree

type def_kind = Toplevel | Init | Local | Lambda

type def = {
  id : int;
  name : string;
  kind : def_kind;
  unit_ : int;
  line : int;
  col : int;
  parent : int;
  is_function : bool;
  mutable_global : bool;
  guarded : bool;
  has_guard : bool;
  has_try : bool;
}

type ref_ = {
  r_path : string;
  r_text : string;
  r_def : int;
  r_line : int;
  r_col : int;
  r_sorted : bool;
}

type seed_site = { site_unit : int; site_line : int; site_col : int }

type t = {
  units : Typed.t array;
  defs : def array;
  refs : ref_ list array;
  calls : (int * int * int) list array;
  seeds : (int * seed_site) list;
  by_name : (string, int) Hashtbl.t;
}

(* lib/<dir>/<file>.ml under a wrapped dune library: module is
   [Cap dir].[Cap file], except the library's root module (file named
   after the dir) which is just [Cap dir]. *)
let module_prefix_of_path path =
  let cap = String.capitalize_ascii in
  let base = cap (Filename.remove_extension (Filename.basename path)) in
  match String.split_on_char '/' path with
  | "lib" :: dir :: _ -> if cap dir = base then base else cap dir ^ "." ^ base
  | _ -> base

let mutable_ctor path =
  path = "Stdlib.ref"
  || (List.exists
        (fun m -> Typed.starts_with ("Stdlib." ^ m ^ ".") path)
        [ "Hashtbl"; "Bytes"; "Buffer"; "Queue"; "Stack" ]
     && Typed.last_component path = "create")
  || Typed.starts_with "Stdlib.Array." path
     && List.mem (Typed.last_component path) [ "make"; "create_float"; "make_matrix" ]

let is_guard path =
  List.exists
    (fun m -> Typed.starts_with m path)
    [ "Stdlib.Atomic."; "Stdlib.Domain.DLS."; "Stdlib.Mutex." ]

let pool_names =
  [ "Netgraph.Pool.parallel_for"; "Netgraph.Pool.parallel_for_slots" ]

(* ---------- build state ---------- *)

type binding = Value of int | Module of string list

type unit_env = {
  ui : int;
  prefix : string;  (* display name of the unit *)
  u : Typed.t;
  idents : (Ident.t, binding) Hashtbl.t;
  wrappers : (Ident.t, int list) Hashtbl.t;
      (* functions forwarding these argument positions to a Pool entry *)
}

(* Defs are created with the body-derived flags unset; [build] fills
   them in from [refs] and [tries] once every body is walked. *)
type state = {
  defs : (int, def) Hashtbl.t;
  refs : (int, ref_ list) Hashtbl.t;  (* reversed *)
  tries : (int, unit) Hashtbl.t;
  names : (string, int) Hashtbl.t;  (* qualified toplevel name -> def *)
  aliases : (string, string list) Hashtbl.t;  (* module -> target *)
  display_of_mod : (string, string) Hashtbl.t;  (* Netgraph__Pool -> Netgraph.Pool *)
  mutable seeds : (int * seed_site) list;  (* reversed *)
  mutable jobs : (unit_env * int * expression) list;  (* reversed *)
}

let new_def st env ~kind ~name ~parent ~is_function ?(annotated = false)
    (line, col) =
  let id = Hashtbl.length st.defs in
  Hashtbl.replace st.defs id
    {
      id;
      name;
      kind;
      unit_ = env.ui;
      line;
      col;
      parent;
      is_function;
      mutable_global = false;
      guarded = annotated;
      has_guard = false;
      has_try = false;
    };
  id

(* Components of a module or value path as written, with this unit's
   own module names and aliases substituted. *)
let rec components env = function
  | Path.Pident id -> (
    match Hashtbl.find_opt env.idents id with
    | Some (Module c) -> c
    | _ -> [ Ident.name id ])
  | Path.Pdot (p, s) -> components env p @ [ s ]
  | Path.Papply (f, _) -> components env f
  | Path.Pextra_ty (p, _) -> components env p

(* Canonical display name: unit heads mapped to their display names,
   then every module prefix expanded through the alias table. *)
let head st h = Option.value ~default:h (Hashtbl.find_opt st.display_of_mod h)

let canonical st comps =
  let rec expand fuel key =
    match Hashtbl.find_opt st.aliases key with
    | Some target when fuel > 0 -> resolve (fuel - 1) target
    | _ -> key
  and resolve fuel = function
    | [] -> ""
    | h :: rest ->
      List.fold_left
        (fun acc c -> expand fuel (acc ^ "." ^ c))
        (expand fuel (head st h))
        rest
  in
  resolve 16 comps

(* ---------- structure walk: defs, module aliases, jobs ---------- *)

let rec alias_target env me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some (components env p)
  | Tmod_apply (f, _, _) | Tmod_apply_unit f -> alias_target env f
  | Tmod_constraint (me, _, _, _) -> alias_target env me
  | Tmod_structure _ | Tmod_functor _ | Tmod_unpack _ -> None

(* a (* lint: domain-local ... *) comment on the binding or just above *)
let annotated env first last =
  List.exists
    (fun l -> Typed.find_sub "lint: domain-local" (Typed.excerpt env.u l) <> None)
    (List.init (last - first + 2) (fun i -> first - 1 + i))

let is_fun e = match e.exp_desc with Texp_function _ -> true | _ -> false

let rec walk_structure st env q (s : structure) =
  List.iter (walk_item st env q) s.str_items

and walk_item st env q item =
  let qualify n = String.concat "." (q @ [ n ]) in
  match item.str_desc with
  | Tstr_value (_, vbs) ->
    List.iteri
      (fun i vb ->
        let ((line, _) as pos) =
          Typed.pos (if i = 0 then item.str_loc else vb.vb_loc)
        in
        let ids = pat_bound_idents vb.vb_pat in
        let kind, name =
          match ids with
          | [] -> (Init, Printf.sprintf "<init:%d>" line)
          | id :: _ -> (Toplevel, Ident.name id)
        in
        let d =
          new_def st env ~kind ~name:(qualify name) ~parent:(-1)
            ~is_function:(is_fun vb.vb_expr)
            ~annotated:(annotated env line vb.vb_loc.loc_end.pos_lnum)
            pos
        in
        List.iter
          (fun id ->
            Hashtbl.replace env.idents id (Value d);
            Hashtbl.replace st.names (qualify (Ident.name id)) d)
          ids;
        st.jobs <- (env, d, vb.vb_expr) :: st.jobs)
      vbs
  | Tstr_eval (e, _) ->
    let ((line, _) as pos) = Typed.pos item.str_loc in
    let d =
      new_def st env ~kind:Init
        ~name:(qualify (Printf.sprintf "<init:%d>" line))
        ~parent:(-1) ~is_function:false pos
    in
    st.jobs <- (env, d, e) :: st.jobs
  | Tstr_module mb -> walk_module_binding st env q mb
  | Tstr_recmodule mbs -> List.iter (walk_module_binding st env q) mbs
  | Tstr_include incl -> walk_module_expr st env q incl.incl_mod
  | _ -> ()

and walk_module_binding st env q mb =
  let q' = q @ [ Option.fold ~none:"_" ~some:Ident.name mb.mb_id ] in
  let bound =
    match alias_target env mb.mb_expr with
    | Some target ->
      (* an alias or functor application names its target's members;
         dune's wrapper aliases ([module Pool = Netgraph__Pool]) already
         name their target in display form *)
      let key = String.concat "." q' in
      (match target with
      | h :: rest when String.concat "." (head st h :: rest) = key -> ()
      | _ -> Hashtbl.replace st.aliases key target);
      target
    | None -> q'
  in
  Option.iter (fun id -> Hashtbl.replace env.idents id (Module bound)) mb.mb_id;
  walk_module_expr st env q' mb.mb_expr

and walk_module_expr st env q me =
  match me.mod_desc with
  | Tmod_structure s -> walk_structure st env q s
  | Tmod_functor (_, body) -> walk_module_expr st env q body
  | Tmod_apply (f, arg, _) ->
    walk_module_expr st env q f;
    walk_module_expr st env q arg
  | Tmod_apply_unit f -> walk_module_expr st env q f
  | Tmod_constraint (me, _, _, _) -> walk_module_expr st env q me
  | Tmod_ident _ | Tmod_unpack _ -> ()

(* ---------- Pool wrappers ----------

   A function that hands one of its own parameters to a Pool entry
   point ([let for_tiles body = Pool.parallel_for p ~n (fun () -> body)])
   runs its caller's argument in the parallel region, so its call
   sites seed like Pool call sites do, at those argument positions. *)

let rec params e =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
    let id =
      match c_lhs.pat_desc with
      | Tpat_var (id, _) | Tpat_alias (_, id, _) -> Some id
      | _ -> None
    in
    let ps, body = params c_rhs in
    (id :: ps, body)
  | _ -> ([], e)

let find_wrappers st env (s : structure) =
  let is_pool e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      List.mem (canonical st (components env p)) pool_names
    | _ -> false
  in
  (* positions of [ps] named inside a Pool application's arguments *)
  let forwarded ps body =
    let depth = ref 0 and used = ref [] in
    let expr sub e =
      (match e.exp_desc with
      | Texp_ident (Path.Pident id, _, _) when !depth > 0 -> used := id :: !used
      | _ -> ());
      let pool = is_pool e in
      if pool then incr depth;
      Tast_iterator.default_iterator.expr sub e;
      if pool then decr depth
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it body;
    List.concat
      (List.mapi
         (fun i p ->
           match p with
           | Some id when List.exists (Ident.same id) !used -> [ i ]
           | _ -> [])
         ps)
  in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun sub vb ->
          (match (pat_bound_idents vb.vb_pat, params vb.vb_expr) with
          | [ f ], ((_ :: _ as ps), body) -> (
            match forwarded ps body with
            | [] -> ()
            | at -> Hashtbl.replace env.wrappers f at)
          | _ -> ());
          Tast_iterator.default_iterator.value_binding sub vb);
    }
  in
  it.structure it s

(* ---------- expression walk: references, locals, seeds ---------- *)

(* Walks one binding's body with [owner] as the def executing it.
   Local [let]s become defs of their own; a function argument of a
   Pool entry point (or of a wrapper's forwarded position) is a seed —
   a lambda as a fresh [Lambda] def, a named function (or a partial
   application of one) as that def. *)
let walk_body st env owner body =
  let owner = ref owner and sorted = ref 0 in
  let name d = (Hashtbl.find st.defs d).name in
  let with_owner d f =
    let o = !owner in
    owner := d;
    f ();
    owner := o
  in
  let resolve = function
    | Path.Pident id when not (Ident.global id) -> (
      match Hashtbl.find_opt env.idents id with
      | Some (Value d) -> (name d, d)
      | _ -> (Ident.name id, -1))
    | p ->
      let name = canonical st (components env p) in
      (name, Option.value ~default:(-1) (Hashtbl.find_opt st.names name))
  in
  let rec head e =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (resolve p)
    | Texp_apply (f, _) -> head f
    | _ -> None
  in
  let sorts e =
    match head e with
    | Some (name, _) ->
      Typed.find_sub "sort" (String.lowercase_ascii (Typed.last_component name)) <> None
    | None -> false
  in
  let seed d site =
    if d >= 0 && not (List.mem (name d) pool_names) then
      st.seeds <- (d, site) :: st.seeds
  in
  (* which argument positions of [f] run in a parallel region *)
  let parallel_args f =
    match (f.exp_desc, head f) with
    | _, Some (name, _) when List.mem name pool_names -> Some (fun _ -> true)
    | Texp_ident (Path.Pident id, _, _), _ ->
      Option.map (fun at i -> List.mem i at) (Hashtbl.find_opt env.wrappers id)
    | _ -> None
  in
  let rec callback sub site_expr a =
    let line, col = Typed.pos site_expr.exp_loc in
    let site = { site_unit = env.ui; site_line = line; site_col = col } in
    match a.exp_desc with
    | Texp_function _ ->
      let ((line, _) as pos) = Typed.pos a.exp_loc in
      let d =
        new_def st env ~kind:Lambda
          ~name:(Printf.sprintf "%s.<fun:%d>" (name !owner) line)
          ~parent:!owner ~is_function:true pos
      in
      seed d site;
      with_owner d (fun () -> default sub a)
    | _ -> (
      expr sub a;
      match (Types.get_desc a.exp_type, head a) with
      | Types.Tarrow _, Some (_, d) -> seed d site
      | _ -> ())
  and expr sub e =
    match e.exp_desc with
    | Texp_ident (p, lid, _) ->
      let r_path, r_def = resolve p in
      let r_line, r_col = Typed.pos e.exp_loc in
      let r =
        {
          r_path;
          r_text = String.concat "." (Longident.flatten lid.txt);
          r_def;
          r_line;
          r_col;
          r_sorted = !sorted > 0;
        }
      in
      Hashtbl.replace st.refs !owner
        (r :: Option.value ~default:[] (Hashtbl.find_opt st.refs !owner))
    | Texp_let (_, vbs, body) ->
      let locals =
        List.mapi
          (fun i vb ->
            match pat_bound_idents vb.vb_pat with
            | [] -> None
            | id :: _ as ids ->
              let d =
                new_def st env ~kind:Local ~name:(Ident.name id)
                  ~parent:!owner ~is_function:(is_fun vb.vb_expr)
                  (Typed.pos (if i = 0 then e.exp_loc else vb.vb_loc))
              in
              List.iter (fun id -> Hashtbl.replace env.idents id (Value d)) ids;
              Some d)
          vbs
      in
      List.iter2
        (fun vb d ->
          match d with
          | Some d -> with_owner d (fun () -> expr sub vb.vb_expr)
          | None -> expr sub vb.vb_expr)
        vbs locals;
      expr sub body
    | Texp_apply (f, args) when parallel_args f <> None ->
      let par = Option.get (parallel_args f) in
      expr sub f;
      List.iteri
        (fun i (_, a) ->
          Option.iter (fun a -> if par i then callback sub f a else expr sub a) a)
        args
    | Texp_apply (f, args) ->
      (* a sort applied to the result, directly or through a pipe,
         fixes the order a Hashtbl traversal leaks *)
      let pipe =
        match head f with
        | Some (name, _) -> List.mem name [ "Stdlib.|>"; "Stdlib.@@" ]
        | None -> false
      in
      let sorting =
        sorts f
        || (pipe && List.exists (function _, Some a -> sorts a | _ -> false) args)
      in
      if sorting then incr sorted;
      default sub e;
      if sorting then decr sorted
    | Texp_try _ ->
      Hashtbl.replace st.tries !owner ();
      default sub e
    | Texp_match (_, cases, _)
      when List.exists (fun c -> snd (split_pattern c.c_lhs) <> None) cases ->
      Hashtbl.replace st.tries !owner ();
      default sub e
    | Texp_letmodule (Some id, _, _, me, _) ->
      Option.iter
        (fun target -> Hashtbl.replace env.idents id (Module target))
        (alias_target env me);
      default sub e
    | _ -> default sub e
  and default sub e = Tast_iterator.default_iterator.expr sub e in
  let it = { Tast_iterator.default_iterator with expr } in
  it.expr it body

(* ---------- assembly ---------- *)

let build (units : Typed.t list) =
  let units = Array.of_list units in
  let st =
    {
      defs = Hashtbl.create 4096;
      refs = Hashtbl.create 4096;
      tries = Hashtbl.create 64;
      names = Hashtbl.create 1024;
      aliases = Hashtbl.create 256;
      display_of_mod = Hashtbl.create 128;
      seeds = [];
      jobs = [];
    }
  in
  let envs =
    Array.mapi
      (fun ui (u : Typed.t) ->
        let prefix = module_prefix_of_path u.path in
        Hashtbl.replace st.display_of_mod u.modname prefix;
        let tbl () = Hashtbl.create 16 in
        { ui; prefix; u; idents = tbl (); wrappers = tbl () })
      units
  in
  (* every unit's defs and aliases exist before any body is resolved *)
  Array.iteri
    (fun ui (u : Typed.t) ->
      walk_structure st envs.(ui) [ envs.(ui).prefix ] u.structure)
    units;
  Array.iteri (fun ui (u : Typed.t) -> find_wrappers st envs.(ui) u.structure) units;
  List.iter (fun (env, d, e) -> walk_body st env d e) (List.rev st.jobs);
  let n = Hashtbl.length st.defs in
  let refs =
    Array.init n (fun d ->
        List.rev (Option.value ~default:[] (Hashtbl.find_opt st.refs d)))
  in
  let defs =
    Array.init n (fun id ->
        let d = Hashtbl.find st.defs id in
        let uses p = List.exists (fun r -> p r.r_path) refs.(id) in
        let toplevel_value = d.kind = Toplevel && not d.is_function in
        {
          d with
          mutable_global = toplevel_value && uses mutable_ctor;
          guarded = d.guarded || (toplevel_value && uses is_guard);
          has_guard = uses is_guard;
          has_try = Hashtbl.mem st.tries id;
        })
  in
  (* call edges in source order; a value local is executed by its
     parent, so it also gets an edge from there *)
  let calls =
    Array.init n (fun d ->
        List.filter_map
          (fun r ->
            if r.r_def >= 0 && r.r_def <> d then Some (r.r_def, r.r_line, r.r_col)
            else None)
          refs.(d))
  in
  Array.iter
    (fun d ->
      if d.kind = Local && (not d.is_function) && d.parent >= 0 then
        calls.(d.parent) <- calls.(d.parent) @ [ (d.id, d.line, d.col) ])
    defs;
  let seen = Hashtbl.create 32 in
  let first_site (d, _) =
    (not (Hashtbl.mem seen d)) && (Hashtbl.replace seen d (); true)
  in
  {
    units;
    defs;
    refs;
    calls;
    seeds = List.filter first_site (List.rev st.seeds);
    by_name = st.names;
  }

let find_def g name =
  match Hashtbl.find_opt g.by_name name with
  | Some id -> Some g.defs.(id)
  | None ->
    (* suffix match as a CLI convenience: [--summary bfs] *)
    let suffix = "." ^ name in
    let ls = String.length suffix in
    Array.to_list g.defs
    |> List.find_opt (fun d ->
           d.kind = Toplevel
           && String.length d.name > ls
           && String.sub d.name (String.length d.name - ls) ls = suffix)
