(* spanner_lint — the repo's own static analyzer (see DESIGN.md §9, §15).

   Exit codes are part of the contract:
     0  clean (no unsuppressed findings)
     1  unsuppressed findings (or, under --strict, stale baseline entries)
     2  usage error (unknown flag / rule, unreadable root or baseline),
        or a scanned .ml whose .cmt is missing or out of date

   Arguments are parsed by hand rather than through Cmdliner so the
   usage-error exit code stays exactly 2. *)

let usage =
  "usage: spanner_lint [options]\n\
  \       spanner_lint graph [--root DIR] [--dot FILE] [--summary FUNC] \
   [--json]\n\n\
   Lint the repository's OCaml sources against the project invariants\n\
   (determinism, float robustness, multicore safety, hygiene).  Rules\n\
   read the compiler's typed trees: run `dune build @check` first.  The\n\
   determinism/multicore rules are interprocedural: effect summaries are\n\
   propagated over the call graph and findings fire only on sites\n\
   reachable from a Netgraph.Pool parallel callback, with the witness\n\
   call chain in the message.\n\n\
   options:\n\
  \  --root DIR         repository root to scan (default: .)\n\
  \  --json             emit kind-tagged JSON lines instead of text\n\
  \  --rule IDS         only run these comma-separated rules (e.g. D001,F002)\n\
  \  --baseline FILE    baseline file (default: ROOT/lint.baseline if present)\n\
  \  --no-baseline      ignore any baseline file\n\
  \  --strict           stale baseline entries are a hard failure (exit 1)\n\
  \  --write-baseline FILE  write current findings as a fresh baseline\n\
  \                     (pruning stale entries, keeping reasons) and exit\n\
  \  --list-rules       print the rule catalog and exit\n\
  \  --help             this message\n\n\
   graph subcommand (call-graph and effect-summary introspection):\n\
  \  --dot FILE         write the effect-colored DOT call graph ('-' = stdout)\n\
  \  --summary FUNC     print FUNC's effect set and parallel witness chain\n\
  \  --json             print the {functions, edges, seeds, reachable} summary\n"

let die_usage msg =
  prerr_string (msg ^ "\n" ^ usage);
  exit 2

let known_rule id =
  Lint.Rules.find id <> None || Lint.Effects.find_rule id <> None

let list_rules () =
  List.iter
    (fun (r : Lint.Effects.rule_info) ->
      Printf.printf "%s  [%s, %s]  %s\n      %s\n" r.id r.family
        (Lint.Diag.severity_to_string r.severity)
        r.title r.doc)
    Lint.Effects.rules;
  List.iter
    (fun (r : Lint.Rules.rule) ->
      Printf.printf "%s  [%s, %s]  %s\n      %s\n" r.id r.family
        (Lint.Diag.severity_to_string r.severity)
        r.title r.doc)
    Lint.Rules.all

(* ---------- graph subcommand ---------- *)

(* a missing or stale .cmt is an input error, like an unreadable root *)
let die_stale msg =
  prerr_endline ("spanner_lint: " ^ msg);
  exit 2

let load_analysis root =
  if not (Sys.file_exists root && Sys.is_directory root) then
    die_usage (Printf.sprintf "root %S is not a directory" root);
  match Lint.Engine.load ~lib_only:true root with
  | units -> Lint.Effects.analyze (Lint.Callgraph.build units)
  | exception Lint.Typed.Stale msg -> die_stale msg

let run_graph args =
  let root = ref "." in
  let dot = ref None in
  let summary = ref None in
  let json = ref false in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
      print_string usage;
      exit 0
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--dot" :: file :: rest ->
      dot := Some file;
      parse rest
    | "--summary" :: f :: rest ->
      summary := Some f;
      parse rest
    | "--json" :: rest ->
      json := true;
      parse rest
    | ("--root" | "--dot" | "--summary") :: [] -> die_usage "missing argument"
    | arg :: _ -> die_usage (Printf.sprintf "unknown argument %S" arg)
  in
  parse args;
  let a = load_analysis !root in
  (match !dot with
  | Some "-" -> print_string (Lint.Effects.to_dot a)
  | Some file ->
    let oc = open_out_bin file in
    output_string oc (Lint.Effects.to_dot a);
    close_out oc
  | None -> ());
  (match !summary with
  | Some f -> (
    match Lint.Effects.function_summary a f with
    | Some s -> print_string s
    | None -> die_usage (Printf.sprintf "unknown function %S" f))
  | None -> ());
  let s = Lint.Effects.stats a in
  if !json then print_endline (Lint.Effects.stats_json s)
  else if !dot = None && !summary = None then
    Printf.printf
      "spanner_lint graph: %d functions, %d edges, %d parallel seeds, %d \
       reachable\n"
      s.s_functions s.s_edges s.s_seeds s.s_reachable;
  exit 0

(* ---------- main lint driver ---------- *)

let () =
  (* the loaded typed trees stay live until exit, so major-GC marking
     of them is wasted work in this short batch run *)
  Gc.set { (Gc.get ()) with space_overhead = 1000 };
  let args = Array.to_list Sys.argv |> List.tl in
  (match args with "graph" :: rest -> run_graph rest | _ -> ());
  let root = ref "." in
  let json = ref false in
  let rule_ids = ref [] in
  let baseline_path = ref None in
  let no_baseline = ref false in
  let strict = ref false in
  let write_baseline = ref None in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
      print_string usage;
      exit 0
    | "--list-rules" :: _ ->
      list_rules ();
      exit 0
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--no-baseline" :: rest ->
      no_baseline := true;
      parse rest
    | "--strict" :: rest ->
      strict := true;
      parse rest
    | "--root" :: dir :: rest ->
      root := dir;
      parse rest
    | "--rule" :: ids :: rest ->
      rule_ids := !rule_ids @ String.split_on_char ',' ids;
      parse rest
    | "--baseline" :: file :: rest ->
      baseline_path := Some file;
      parse rest
    | "--write-baseline" :: file :: rest ->
      write_baseline := Some file;
      parse rest
    | ("--root" | "--rule" | "--baseline" | "--write-baseline") :: [] ->
      die_usage "missing argument"
    | arg :: _ -> die_usage (Printf.sprintf "unknown argument %S" arg)
  in
  parse args;
  if not (Sys.file_exists !root && Sys.is_directory !root) then
    die_usage (Printf.sprintf "root %S is not a directory" !root);
  let only =
    match !rule_ids with
    | [] -> None
    | ids ->
      Some
        (List.map
           (fun id ->
             let id = String.trim id in
             if known_rule id then id
             else die_usage (Printf.sprintf "unknown rule %S" id))
           ids)
  in
  let baseline =
    if !no_baseline then []
    else
      let path, explicit =
        match !baseline_path with
        | Some p -> (p, true)
        | None -> (Filename.concat !root "lint.baseline", false)
      in
      if Sys.file_exists path then
        try Lint.Baseline.read path
        with Failure msg | Sys_error msg -> die_usage msg
      else if explicit then die_usage (Printf.sprintf "no baseline %S" path)
      else []
  in
  let res =
    try Lint.Engine.run ?only ~baseline !root
    with Lint.Typed.Stale msg -> die_stale msg
  in
  (match !write_baseline with
  | Some file ->
    let all = res.findings @ List.map fst res.grandfathered in
    let entries =
      Lint.Baseline.of_findings ~reason:"TODO: justify or fix"
        (List.sort Lint.Diag.compare all)
      |> Lint.Baseline.merge_reasons ~old:baseline
    in
    Lint.Baseline.write file entries;
    Printf.printf "spanner_lint: wrote %d baseline entries to %s\n"
      (List.length entries) file;
    exit 0
  | None -> ());
  if !json then begin
    List.iter
      (fun d -> print_endline (Lint.Diag.to_json_line d))
      res.findings;
    Printf.printf
      "{\"kind\":\"summary\",\"findings\":%d,\"grandfathered\":%d,\"suppressed\":%d,\"files\":%d,\"stale_baseline\":%d}\n"
      (List.length res.findings)
      (List.length res.grandfathered)
      res.suppressed res.files
      (List.length res.unused_baseline)
  end
  else begin
    List.iter
      (fun d -> Format.printf "%a@." Lint.Diag.pp d)
      res.findings;
    List.iter
      (fun (e : Lint.Baseline.entry) ->
        Printf.printf
          "%s: stale baseline entry %s %s (%d grandfathered; fewer found)\n"
          (if !strict then "error" else "note")
          e.rule e.file e.count)
      res.unused_baseline;
    Printf.printf
      "spanner_lint: %d finding%s, %d grandfathered, %d suppressed, %d files\n"
      (List.length res.findings)
      (if List.length res.findings = 1 then "" else "s")
      (List.length res.grandfathered)
      res.suppressed res.files
  end;
  let stale_fail = !strict && res.unused_baseline <> [] in
  exit (if res.findings = [] && not stale_fail then 0 else 1)
