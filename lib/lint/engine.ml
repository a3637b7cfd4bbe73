(* Ties the pieces together: walk the tree, load the compiled units,
   run the rule catalog, honour inline suppressions, then net the
   committed baseline off.  Directory walks and finding lists are
   sorted, so a run's output is bit-identical across machines. *)

type result = {
  findings : Diag.t list;  (* unsuppressed, after the baseline *)
  grandfathered : (Diag.t * string) list;
  suppressed : int;
  files : int;
  unused_baseline : Baseline.entry list;
}

let scan_dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let skip_dir name =
  name = "_build" || name = "fixtures"
  || (String.length name > 0 && name.[0] = '.')

let scan_files root =
  let out = ref [] in
  let rec walk rel abs =
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | true ->
      let entries = Sys.readdir abs in
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          if not (skip_dir name) then
            walk (rel ^ "/" ^ name) (Filename.concat abs name))
        entries
    | false ->
      if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
      then out := rel :: !out
  in
  List.iter
    (fun d ->
      let abs = Filename.concat root d in
      if Sys.file_exists abs then walk d abs)
    scan_dirs;
  List.rev !out

let under_lib = Typed.starts_with "lib/"

let load ?(lib_only = false) root =
  scan_files root
  |> List.filter (fun p ->
         Filename.check_suffix p ".ml" && ((not lib_only) || under_lib p))
  |> Typed.load ~root

(* ---------- inline suppressions ----------

   (* lint: disable RULE reason *) silences RULE on every line the
   comment touches and the line after it; the reason is mandatory — a
   reasonless disable is inert.  (* lint: domain-local reason *) is
   consumed by M001 directly.  Both are found by a line scan of the
   source. *)

type suppression = { s_rule : string; s_first : int; s_last : int }

let marker = "lint: disable"

let suppressions lines =
  let n = Array.length lines in
  (* the comment's text after the marker, up to its closer, and the
     0-based index of the closing line *)
  let rec body j from acc =
    if j >= n then (acc, n - 1)
    else
      let l = lines.(j) in
      let rest = String.sub l from (String.length l - from) in
      match Typed.find_sub "*)" rest with
      | Some c -> (acc ^ " " ^ String.sub rest 0 c, j)
      | None -> body (j + 1) 0 (acc ^ " " ^ rest)
  in
  List.concat
    (List.mapi
       (fun i line ->
         match Typed.find_sub marker line with
         | None -> []
         | Some k -> (
           let text, last = body i (k + String.length marker) "" in
           match
             String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) text)
             |> List.filter (( <> ) "")
           with
           | rule :: _ :: _ -> [ { s_rule = rule; s_first = i + 1; s_last = last + 2 } ]
           | _ -> [] (* no reason given: the suppression is inert *)))
       (Array.to_list lines))

let suppressed sups (d : Diag.t) =
  List.exists
    (fun s -> s.s_rule = d.rule && d.line >= s.s_first && d.line <= s.s_last)
    sups

(* ---------- per-unit lint ---------- *)

let lint_unit ?(rules = Rules.all) (u : Typed.t) =
  let ctx = Rules.ctx_of_unit u in
  let raw = List.concat_map (fun (r : Rules.rule) -> r.check ctx) rules in
  let sups = suppressions u.lines in
  let kept, cut = List.partition (fun d -> not (suppressed sups d)) raw in
  (List.sort Diag.compare kept, List.length cut)

(* ---------- whole-project lint ----------

   Local rules run per .ml unit; the interprocedural layer
   (Callgraph + Effects) runs once over lib/**.  Effect findings
   honour the same inline suppressions, looked up in the file the
   finding lands in. *)

let keep_rule only id =
  match only with None -> true | Some ids -> List.mem id ids

let lint_project ?only (units : Typed.t list) =
  let rules = List.filter (fun (r : Rules.rule) -> keep_rule only r.id) Rules.all in
  let sources = List.filter Typed.is_source units in
  let local, cut =
    List.fold_left
      (fun (all, cut) u ->
        let findings, c = lint_unit ~rules u in
        (List.rev_append findings all, cut + c))
      ([], 0) sources
  in
  let lib = List.filter (fun (u : Typed.t) -> under_lib u.path) units in
  let effect_findings =
    if List.exists Typed.is_source lib then
      Effects.findings ?only (Effects.analyze (Callgraph.build lib))
    else []
  in
  let sups = Hashtbl.create 16 in
  List.iter
    (fun (u : Typed.t) -> Hashtbl.replace sups u.path (lazy (suppressions u.lines)))
    units;
  let kept, cut_effects =
    List.partition
      (fun (d : Diag.t) ->
        match Hashtbl.find_opt sups d.file with
        | Some s -> not (suppressed (Lazy.force s) d)
        | None -> true)
      effect_findings
  in
  ( List.sort Diag.compare (List.rev_append kept local),
    cut + List.length cut_effects,
    List.length sources )

(* ---------- whole-tree run ---------- *)

let run ?only ?(baseline = []) root =
  let sorted, suppressed, nml = lint_project ?only (load root) in
  let findings, grandfathered = Baseline.apply baseline sorted in
  let used = Hashtbl.create 16 in
  List.iter
    (fun ((d : Diag.t), _) ->
      let key = (d.rule, d.file) in
      match Hashtbl.find_opt used key with
      | Some r -> incr r
      | None -> Hashtbl.replace used key (ref 1))
    grandfathered;
  let unused_baseline =
    List.filter
      (fun (e : Baseline.entry) ->
        match Hashtbl.find_opt used (e.rule, e.file) with
        | Some r -> !r < e.count
        | None -> true)
      baseline
  in
  { findings; grandfathered; suppressed; files = nml; unused_baseline }
