(* The lint layer: positive and negative cases for the local rules,
   multi-module projects exercising the interprocedural layer
   (call-graph resolution hard cases, Pool-reachability with witness
   chains, E001/E002), suppression and baseline round-trips, the
   stale-input guard, the DOT export's structure, and the self-lint —
   the repo must come out clean under its own analyzer.

   Every case is compiled code: the modules under
   test/fixtures/lint/cases are built by dune, and each case is one
   nested module, linted under the repo path the case needs and
   judged on the findings inside that module's lines. *)

let check = Alcotest.(check bool)

(* Tests run from _build/default/test; the tree above it is the
   (copied) repository root with the compiler's outputs next to the
   sources, declared as deps in test/dune. *)
let repo_root = ".."

let cases_dir = "test/fixtures/lint/cases"

let loaded = Hashtbl.create 16

(* The compiled case file [name], presented as [path]. *)
let case ?(has_mli = true) ~path name =
  let u =
    match Hashtbl.find_opt loaded name with
    | Some u -> u
    | None -> (
      match
        Lint.Typed.load ~root:repo_root [ cases_dir ^ "/" ^ name ^ ".ml" ]
      with
      | u :: _ ->
        Hashtbl.replace loaded name u;
        u
      | [] -> Alcotest.fail ("case file not loaded: " ^ name))
  in
  { u with Lint.Typed.path; has_mli }

(* Line span of the nested module [m] of a case file. *)
let span (u : Lint.Typed.t) m =
  match
    List.find_map
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_module { mb_id = Some id; _ } when Ident.name id = m ->
          Some (item.str_loc.loc_start.pos_lnum, item.str_loc.loc_end.pos_lnum)
        | _ -> None)
      u.structure.str_items
  with
  | Some s -> s
  | None -> Alcotest.fail ("no case module " ^ m)

let inside u m =
  let lo, hi = span u m in
  List.filter (fun (d : Lint.Diag.t) -> d.line >= lo && d.line <= hi)

let rules_of ds = List.map (fun d -> d.Lint.Diag.rule) ds

(* ---------- local rules: positive / negative cases ---------- *)

(* Does local rule [r] fire on case module [m] of file [name] linted
   as [path]?  Without [m], anywhere in the file. *)
let fires r ~path ?has_mli name ?m () =
  let u = case ?has_mli ~path name in
  let findings = fst (Lint.Engine.lint_unit u) in
  let findings = match m with Some m -> inside u m findings | None -> findings in
  List.mem r (rules_of findings)

let f001 () =
  check "List.sort compare at float flagged" true
    (fires "F001" ~path:"lib/netgraph/x.ml" "f001" ~m:"Sort_compare" ());
  check "min of float flagged" true
    (fires "F001" ~path:"lib/geometry/x.ml" "f001" ~m:"Min_float" ());
  check "Float.compare fine" false
    (fires "F001" ~path:"lib/netgraph/x.ml" "f001" ~m:"Float_compare" ());
  check "defining compare fine" false
    (fires "F001" ~path:"lib/netgraph/x.ml" "f001" ~m:"Define_compare" ());
  check "int min fine" false
    (fires "F001" ~path:"lib/netgraph/x.ml" "f001" ~m:"Int_min" ());
  check "core out of scope" false
    (fires "F001" ~path:"lib/core/x.ml" "f001" ~m:"Sort_compare" ())

let f002 () =
  check "x = 0. flagged" true
    (fires "F002" ~path:"lib/netgraph/x.ml" "f002" ~m:"Eq_zero" ());
  check "<> 1e-9 flagged" true
    (fires "F002" ~path:"lib/delaunay/x.ml" "f002" ~m:"Neq_eps" ());
  check "= nan flagged" true
    (fires "F002" ~path:"lib/geometry/x.ml" "f002" ~m:"Eq_nan" ());
  check "let binding fine" false
    (fires "F002" ~path:"lib/geometry/x.ml" "f002" ~m:"Let_binding" ());
  check "record literal fine" false
    (fires "F002" ~path:"lib/geometry/x.ml" "f002" ~m:"Record_literal" ());
  check "optional default fine" false
    (fires "F002" ~path:"lib/geometry/x.ml" "f002" ~m:"Optional_default" ());
  check "predicates.ml exempt" false
    (fires "F002" ~path:"lib/geometry/predicates.ml" "f002" ~m:"Eq_zero" ())

let h001 () =
  check "lib module without mli flagged" true
    (fires "H001" ~path:"lib/geometry/x.ml" ~has_mli:false "plain" ());
  check "with mli fine" false
    (fires "H001" ~path:"lib/geometry/x.ml" ~has_mli:true "plain" ());
  check "bin exempt" false
    (fires "H001" ~path:"bin/x.ml" ~has_mli:false "plain" ())

let h002 () =
  check "Obj.magic flagged" true
    (fires "H002" ~path:"bin/x.ml" "h002" ~m:"Magic" ());
  check "Obj.repr fine" false
    (fires "H002" ~path:"bin/x.ml" "h002" ~m:"Repr" ())

let h003 () =
  check "bare assert false flagged" true
    (fires "H003" ~path:"lib/core/x.ml" "h003" ~m:"Bare_assert" ());
  check "commented assert false fine" false
    (fires "H003" ~path:"lib/core/x.ml" "h003" ~m:"Commented_assert" ());
  check "empty failwith flagged" true
    (fires "H003" ~path:"lib/core/x.ml" "h003" ~m:"Empty_failwith" ());
  check "failwith with message fine" false
    (fires "H003" ~path:"lib/core/x.ml" "h003" ~m:"Failwith_message" ());
  check "ordinary assert fine" false
    (fires "H003" ~path:"lib/core/x.ml" "h003" ~m:"Ordinary_assert" ());
  check "tests exempt" false
    (fires "H003" ~path:"test/x.ml" "h003" ~m:"Bare_assert" ())

let o001 () =
  check "uppercase name flagged" true
    (fires "O001" ~path:"lib/serve/x.ml" "o001" ~m:"Uppercase" ());
  check "space in name flagged" true
    (fires "O001" ~path:"bin/x.ml" "o001" ~m:"Space" ());
  check "dotted lowercase fine" false
    (fires "O001" ~path:"lib/serve/x.ml" "o001" ~m:"Dotted" ());
  check "computed names skipped" false
    (fires "O001" ~path:"bench/x.ml" "o001" ~m:"Computed" ())

let o002 () =
  check "raw Obs.Trace.send in lib flagged" true
    (fires "O002" ~path:"lib/core/x.ml" "o002" ~m:"Raw_send" ());
  check "the stamping helper itself is exempt" false
    (fires "O002" ~path:"lib/distsim/stamp.ml" "o002" ~m:"Raw_send" ());
  check "unrelated sends out of scope" false
    (fires "O002" ~path:"lib/core/x.ml" "o002" ~m:"Channel_send" ())

(* ---------- interprocedural layer ---------- *)

(* Findings of rule [rule] (the only rule run) inside case module [m]
   of file [name], linted as the one-unit project [path]. *)
let project_findings rule ~path name m =
  let u = case ~path name in
  let findings, _, _ = Lint.Engine.lint_project ~only:[ rule ] [ u ] in
  inside u m findings

let pfires rule ~path name m = project_findings rule ~path name m <> []

let msg_of rule ~path name m =
  match project_findings rule ~path name m with
  | d :: _ -> d.Lint.Diag.message
  | [] -> ""

let contains sub s =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

let effects rule m = pfires rule ~path:"lib/core/a.ml" "effects" m

(* Acceptance case: a multi-hop chain from a Pool.parallel_for
   callback to the flagged effect site, and the same effect in a
   function no seed reaches staying unflagged. *)
let retarget_chain () =
  check "D001 fires through the chain" true (effects "D001" "Chain");
  let m = msg_of "D001" ~path:"lib/core/a.ml" "effects" "Chain" in
  check "witness chain is multi-hop" true
    (contains "->" m && contains "middle" m && contains "leaf" m);
  check "chain names the Pool call site" true
    (contains "Pool call at lib/core/a.ml" m);
  check "effectful but unreachable: not flagged" false
    (effects "D001" "Unreachable")

let retarget_rules () =
  check "D003 clock on parallel path" true (effects "D003" "Clock_on");
  check "D003 clock off parallel path" false (effects "D003" "Clock_off");
  check "D002 unordered fold on parallel path" true
    (effects "D002" "Unordered_fold");
  check "D002 sort-wrapped fold allowed" false (effects "D002" "Sorted_fold");
  check "M001 shared global touched on parallel path" true
    (effects "M001" "Shared_global");
  check "M001 Atomic global fine" false (effects "M001" "Atomic_global");
  check "M001 unreferenced global fine" false
    (effects "M001" "Unreferenced_global");
  check "M002 graph mutation on parallel path" true
    (effects "M002" "Graph_mut");
  check "M002 builder sealing fine" false (effects "M002" "Builder_add")

let e001_e002 () =
  check "E001 unguarded print on parallel path" true
    (effects "E001" "Print_on");
  check "E001 guarded by an Atomic on the chain" false
    (effects "E001" "Print_guarded");
  check "E001 off the parallel path" false (effects "E001" "Print_off");
  check "E002 escaping failwith" true (effects "E002" "Escaping_failwith");
  check "E002 handler on the chain" false (effects "E002" "Handled")

(* ---------- call-graph hard cases ---------- *)

let graph_case m = pfires "D001" ~path:"lib/core/f.ml" "callgraph" m

let d001_messages m =
  List.map
    (fun d -> d.Lint.Diag.message)
    (project_findings "D001" ~path:"lib/core/f.ml" "callgraph" m)

let cg_functor () =
  let ms = d001_messages "Functor_app" in
  check "call through the functor instance is reachable" true
    (List.exists (contains "noisy") ms);
  check "uncalled functor member is not flagged" false
    (List.exists (contains "unused_noise") ms)

let cg_local_open () =
  let ms = d001_messages "Local_open" in
  check "name through a let-open resolves and is reachable" true
    (List.exists (contains "noisy") ms);
  check "effectful toplevel nothing calls stays unflagged" false
    (List.exists (contains "lone") ms)

let cg_alias () =
  check "aliased module path reaches the definition" true
    (graph_case "Alias_call");
  check "alias without the call stays clean" false (graph_case "Alias_no_call")

let cg_shadowing () =
  check "local shadow cuts reachability to the toplevel" false
    (graph_case "Shadowed");
  check "without the shadow the toplevel is reachable" true
    (graph_case "Unshadowed")

let cg_mutual_rec () =
  check "mutual recursion: effect reaches through the cycle" true
    (graph_case "Cycle_reached");
  check "cycle no seed reaches stays unflagged" false
    (graph_case "Cycle_unreached")

let cg_two_opens () =
  check "the later open shadows the earlier one" false (graph_case "Two_opens");
  check "swapped opens reach the effectful namesake" true
    (graph_case "Two_opens_swapped")

(* ---------- suppressions ---------- *)

let suppression () =
  let u = case ~path:"lib/core/x.ml" "suppress" in
  let findings, cut = Lint.Engine.lint_unit u in
  check "suppressed" true
    (not (List.mem "H002" (rules_of (inside u "Reasoned" findings))));
  check "counted" true (cut = 1);
  check "wrong rule id does not silence" true
    (List.mem "H002" (rules_of (inside u "Wrong_rule" findings)));
  check "reasonless suppression is inert" true
    (List.mem "H002" (rules_of (inside u "Reasonless" findings)));
  (* interprocedural findings honour the same inline suppressions *)
  let findings, cut, _ =
    Lint.Engine.lint_project ~only:[ "E001" ]
      [ case ~path:"lib/core/a.ml" "suppress_effect" ]
  in
  check "effect finding suppressed in its file" true (findings = []);
  check "effect suppression counted" true (cut = 1)

(* ---------- stale-input guard ---------- *)

let copy src dst =
  let ic = open_in_bin src in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

(* A scratch root holding one source and (optionally) its .cmt in a
   dune-style object directory: a missing .cmt and one compiled from
   other contents must both be refused, naming the file. *)
let stale_guard () =
  let root = Filename.temp_dir "lint_stale" "" in
  let dir = Filename.concat root "lib/core" in
  let objs = Filename.concat dir ".core.objs/byte" in
  List.iter
    (fun d -> Sys.mkdir d 0o755)
    [
      Filename.concat root "lib"; dir; Filename.concat dir ".core.objs"; objs;
    ];
  let src = Filename.concat repo_root (cases_dir ^ "/plain.ml") in
  let cmt =
    Filename.concat repo_root
      (cases_dir ^ "/.lint_cases.objs/byte/lint_cases__Plain.cmt")
  in
  let refused () =
    match Lint.Typed.load ~root [ "lib/core/plain.ml" ] with
    | _ -> None
    | exception Lint.Typed.Stale msg -> Some msg
  in
  copy src (Filename.concat dir "plain.ml");
  check "missing .cmt refused, naming the file" true
    (match refused () with
    | Some msg -> contains "lib/core/plain.ml" msg
    | None -> false);
  copy cmt (Filename.concat objs "lint_cases__Plain.cmt");
  check "matching .cmt accepted" true (refused () = None);
  let oc = open_out_gen [ Open_append ] 0o644 (Filename.concat dir "plain.ml") in
  output_string oc "let y = 2\n";
  close_out oc;
  check "edited source refused, naming the file" true
    (match refused () with
    | Some msg -> contains "lib/core/plain.ml" msg
    | None -> false);
  Sys.remove (Filename.concat objs "lint_cases__Plain.cmt");
  Sys.remove (Filename.concat dir "plain.ml");
  List.iter Sys.rmdir
    [ objs; Filename.concat dir ".core.objs"; dir; Filename.concat root "lib"; root ]

(* ---------- baseline ---------- *)

let mk_diag ?(rule = "D002") ?(file = "lib/core/x.ml") ?(line = 3) () =
  {
    Lint.Diag.rule;
    severity = Lint.Diag.Error;
    file;
    line;
    col = 1;
    message = "msg";
    excerpt = "Hashtbl.fold ...";
  }

let baseline_roundtrip () =
  let entries =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/obs/obs.ml"; count = 3;
        reason = "order-insensitive reset" };
      { Lint.Baseline.rule = "H003"; file = "lib/core/ldel.ml"; count = 1;
        reason = "documented in DESIGN.md" };
    ]
  in
  let back = Lint.Baseline.of_string (Lint.Baseline.to_string entries) in
  check "round-trips" true (back = entries);
  check "reasonless entry rejected" true
    (try
       ignore (Lint.Baseline.of_string "D002\tlib/x.ml\t1\t \n");
       false
     with Failure _ -> true)

let baseline_apply () =
  let e =
    [ { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 1;
        reason = "grandfathered" } ]
  in
  let d1 = mk_diag ~line:3 () and d2 = mk_diag ~line:9 () in
  let keep, grand = Lint.Baseline.apply e [ d2; d1 ] in
  check "budget consumed in position order" true
    (match grand with [ (g, r) ] -> g.Lint.Diag.line = 3 && r = "grandfathered" | _ -> false);
  check "excess finding still fails" true
    (match keep with [ k ] -> k.Lint.Diag.line = 9 | _ -> false);
  let other = mk_diag ~rule:"D001" () in
  let keep2, _ = Lint.Baseline.apply e [ other ] in
  check "other rules unaffected" true (keep2 = [ other ]);
  check "of_findings collapses" true
    (Lint.Baseline.of_findings ~reason:"r" [ d1; d2 ]
    = [ { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 2;
          reason = "r" } ])

let baseline_merge () =
  let old =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 9;
        reason = "documented debt" };
      { Lint.Baseline.rule = "M002"; file = "lib/core/gone.ml"; count = 2;
        reason = "stale, must be pruned" };
    ]
  in
  let fresh =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 2;
        reason = "TODO: justify or fix" };
      { Lint.Baseline.rule = "H003"; file = "lib/core/y.ml"; count = 1;
        reason = "TODO: justify or fix" };
    ]
  in
  let merged = Lint.Baseline.merge_reasons ~old fresh in
  check "reason carried over, count refreshed" true
    (match merged with
    | a :: _ -> a.Lint.Baseline.reason = "documented debt" && a.count = 2
    | [] -> false);
  check "new entries keep the placeholder" true
    (match merged with
    | [ _; b ] -> b.Lint.Baseline.reason = "TODO: justify or fix"
    | _ -> false);
  check "stale old entries are not resurrected" true
    (List.length merged = 2)

(* ---------- JSON ---------- *)

let json_roundtrip () =
  let d =
    {
      Lint.Diag.rule = "F002";
      severity = Lint.Diag.Warning;
      file = "lib/geometry/x.ml";
      line = 12;
      col = 7;
      message = "tricky \"quotes\" and \\ backslash";
      excerpt = "if x = 0. then (* \"why\" *)";
    }
  in
  (match Lint.Diag.of_json_line (Lint.Diag.to_json_line d) with
  | Some back -> check "finding round-trips" true (Lint.Diag.equal d back)
  | None -> Alcotest.fail "finding did not parse back");
  let report =
    Lint.Diag.to_json_line d ^ "\n\n"
    ^ "{\"kind\":\"summary\",\"findings\":1,\"grandfathered\":0,\"suppressed\":0,\"files\":1}\n"
  in
  check "reader skips summary and blanks" true
    (match Lint.Diag.read_json_lines report with
    | [ one ] -> Lint.Diag.equal d one
    | _ -> false)

(* ---------- self-lint, stats, DOT ---------- *)

let self_analysis () =
  Lint.Effects.analyze
    (Lint.Callgraph.build (Lint.Engine.load ~lib_only:true repo_root))

let self_lint () =
  let baseline_file = Filename.concat repo_root "lint.baseline" in
  check "baseline present" true (Sys.file_exists baseline_file);
  let baseline = Lint.Baseline.read baseline_file in
  List.iter
    (fun (e : Lint.Baseline.entry) ->
      check ("baseline reason: " ^ e.file) true
        (String.trim e.reason <> ""))
    baseline;
  let res = Lint.Engine.run ~baseline repo_root in
  List.iter
    (fun d -> Format.eprintf "self-lint: %a@." Lint.Diag.pp d)
    res.findings;
  check "zero unsuppressed findings" true (res.findings = []);
  check "scanned the whole tree" true (res.files > 50);
  check "no stale baseline entries" true (res.unused_baseline = []);
  (* the --json report of everything the run saw must round-trip
     through the reader *)
  let all = List.map fst res.grandfathered in
  let report =
    String.concat "\n" (List.map Lint.Diag.to_json_line all)
    ^ "\n{\"kind\":\"summary\",\"findings\":0,\"grandfathered\":0,\"suppressed\":2,\"files\":98}"
  in
  let back = Lint.Diag.read_json_lines report in
  check "self report round-trips" true
    (List.length back = List.length all
    && List.for_all2 Lint.Diag.equal all back)

let self_stale_baseline () =
  let fake =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/obs/obs.ml"; count = 4;
        reason = "retired by the reachability retargeting" };
    ]
  in
  let res = Lint.Engine.run ~baseline:fake repo_root in
  check "stale entry surfaces in unused_baseline" true
    (res.unused_baseline <> [])

let count_sub sub s =
  let n = String.length sub and h = String.length s in
  let c = ref 0 in
  for i = 0 to h - n do
    if String.sub s i n = sub then incr c
  done;
  !c

(* Acceptance case: the DOT export parses structurally, the
   parallel-reachable cluster is non-empty, and the edge count matches
   the JSON summary. *)
let graph_dot () =
  let a = self_analysis () in
  let dot = Lint.Effects.to_dot a in
  let s = Lint.Effects.stats a in
  check "starts as a digraph" true
    (String.length dot > 16 && String.sub dot 0 8 = "digraph ");
  check "braces balance" true (count_sub "{" dot = count_sub "}" dot);
  check "has the parallel cluster" true
    (contains "subgraph cluster_parallel {" dot);
  (* cluster body = everything between the cluster opener and the
     first closing brace at that nesting: it must contain node lines *)
  check "cluster is non-empty" true (s.Lint.Effects.s_reachable > 0);
  let cluster_nodes =
    (* reachable nodes are emitted inside the cluster, one per line *)
    count_sub "\n    n" dot
  in
  check "reachable nodes sit inside the cluster" true
    (cluster_nodes = s.Lint.Effects.s_reachable);
  check "edge count matches the JSON summary" true
    (count_sub " -> " dot = s.Lint.Effects.s_edges);
  let j = Lint.Effects.stats_json s in
  check "stats json shape" true
    (contains "\"kind\":\"callgraph\"" j
    && contains (Printf.sprintf "\"edges\":%d" s.Lint.Effects.s_edges) j);
  check "analysis is substantial" true
    (s.Lint.Effects.s_functions > 500
    && s.Lint.Effects.s_edges > 1000
    && s.Lint.Effects.s_seeds > 5)

let graph_summary () =
  let a = self_analysis () in
  (match Lint.Effects.function_summary a "triangulate" with
  | Some s ->
    check "summary names the def site" true
      (contains "lib/delaunay/triangulation.ml" s);
    check "summary reports reachability" true
      (contains "parallel-reachable: yes" s);
    check "summary has a witness chain" true (contains " -> " s)
  | None -> Alcotest.fail "triangulate not found by suffix");
  check "unknown function is None" true
    (Lint.Effects.function_summary a "no_such_function_anywhere" = None)

let catalog () =
  let local = Lint.Rules.all in
  let inter = Lint.Effects.rules in
  check "at least 8 rules across both catalogs" true
    (List.length local + List.length inter >= 8);
  let families =
    List.sort_uniq String.compare
      (List.map (fun (r : Lint.Rules.rule) -> r.family) local
      @ List.map (fun (r : Lint.Effects.rule_info) -> r.family) inter)
  in
  check "four families" true (List.length families = 4);
  List.iter
    (fun (r : Lint.Rules.rule) ->
      check ("doc for " ^ r.id) true (String.length r.doc > 20))
    local;
  List.iter
    (fun (r : Lint.Effects.rule_info) ->
      check ("doc for " ^ r.id) true (String.length r.doc > 20))
    inter;
  check "interprocedural find" true
    (match Lint.Effects.find_rule "D001" with
    | Some r -> r.id = "D001" && r.family = "determinism"
    | None -> false);
  check "local find" true
    (match Lint.Rules.find "F001" with Some r -> r.id = "F001" | None -> false);
  check "local catalog no longer owns D001" true (Lint.Rules.find "D001" = None);
  check "find miss" true
    (Lint.Rules.find "Z999" = None && Lint.Effects.find_rule "Z999" = None)

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "F001 poly compare" `Quick f001;
        Alcotest.test_case "F002 float literal eq" `Quick f002;
        Alcotest.test_case "H001 missing mli" `Quick h001;
        Alcotest.test_case "H002 obj magic" `Quick h002;
        Alcotest.test_case "H003 silent dead ends" `Quick h003;
        Alcotest.test_case "O001 metric name convention" `Quick o001;
        Alcotest.test_case "O002 stamped trace events" `Quick o002;
        Alcotest.test_case "catalog" `Quick catalog;
      ] );
    ( "lint.effects",
      [
        Alcotest.test_case "retarget: witness chain" `Quick retarget_chain;
        Alcotest.test_case "retarget: D002 D003 M001 M002" `Quick retarget_rules;
        Alcotest.test_case "E001/E002 guards and handlers" `Quick e001_e002;
      ] );
    ( "lint.callgraph",
      [
        Alcotest.test_case "functor application" `Quick cg_functor;
        Alcotest.test_case "local open" `Quick cg_local_open;
        Alcotest.test_case "module alias" `Quick cg_alias;
        Alcotest.test_case "shadowed names" `Quick cg_shadowing;
        Alcotest.test_case "mutual let rec" `Quick cg_mutual_rec;
        Alcotest.test_case "two opens" `Quick cg_two_opens;
      ] );
    ( "lint.plumbing",
      [
        Alcotest.test_case "suppressions" `Quick suppression;
        Alcotest.test_case "baseline round-trip" `Quick baseline_roundtrip;
        Alcotest.test_case "baseline apply" `Quick baseline_apply;
        Alcotest.test_case "baseline reason merge" `Quick baseline_merge;
        Alcotest.test_case "json round-trip" `Quick json_roundtrip;
        Alcotest.test_case "stale .cmt refused" `Quick stale_guard;
      ] );
    ( "lint.self",
      [
        Alcotest.test_case "repo self-lints clean" `Quick self_lint;
        Alcotest.test_case "stale baseline detection" `Quick self_stale_baseline;
        Alcotest.test_case "dot export structure" `Quick graph_dot;
        Alcotest.test_case "function summary" `Quick graph_summary;
      ] );
  ]
