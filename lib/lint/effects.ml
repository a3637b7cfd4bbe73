(* Per-function effect summaries propagated bottom-up over SCCs of the
   call graph, a reachability pass seeded at Netgraph.Pool callback
   sites, and the diagnostics built on both: the determinism/multicore
   rules (D001/D002/D003/M001/M002 fire only on sites whose function is
   reachable from a parallel region, and each finding carries the
   witness call chain) and the E-rules (E001 unguarded blocking I/O on
   a parallel chain, E002 exception escaping a parallel region without
   a handler on the chain).  An effect is an exact path test on the
   identifiers the typechecker resolved.  Sanctioned homes for an
   effect — lib/obs for clocks and I/O, lib/wireless/rand.ml for
   randomness, lib/netgraph/graph.ml for the sorted-iteration wrappers
   and the graph mutation API — export empty summaries, so the effect
   does not leak through the abstraction that exists to contain it. *)

module C = Callgraph

type kind =
  | Random
  | Clock
  | Unordered_iter
  | Mutable_global
  | Blocking_io
  | Raises
  | Graph_mut

(* name, DOT color and rule per kind, in bit order *)
let kinds =
  [
    (Random, "Random", "#e07a7a", "D001");
    (Clock, "Clock", "#e0a85f", "D003");
    (Unordered_iter, "Unordered_iter", "#d8c95a", "D002");
    (Mutable_global, "Mutable_global", "#b58ad6", "M001");
    (Blocking_io, "Blocking_io", "#7ab0e0", "E001");
    (Raises, "Raises", "#b0b0b0", "E002");
    (Graph_mut, "Graph_mut", "#72c7a8", "M002");
  ]

let all_kinds = List.map (fun (k, _, _, _) -> k) kinds

let bit k =
  let rec go i = function
    | [] -> 0
    | k' :: rest -> if k' = k then 1 lsl i else go (i + 1) rest
  in
  go 0 all_kinds

let all_bits = (1 lsl List.length kinds) - 1

let entry k = List.find (fun (k', _, _, _) -> k' = k) kinds

let kind_name k = match entry k with _, name, _, _ -> name

let kind_color k = match entry k with _, _, color, _ -> color

let rule_of_kind k = match entry k with _, _, _, rule -> rule

let under dir path = Typed.starts_with (dir ^ "/") path

(* Sanctioned homes: effects intrinsic to these files are masked and
   do not propagate to callers. *)
let mask_of_path path =
  if under "lib/obs" path || under "bench" path then all_bits
  else if path = "lib/wireless/rand.ml" then bit Random
  else if path = "lib/netgraph/graph.ml" then bit Unordered_iter lor bit Graph_mut
  else 0

type site = {
  e_def : int;
  e_kind : kind;
  e_line : int;
  e_col : int;
  e_text : string;  (* the identifier as written *)
  e_note : string;  (* extra context, e.g. which global is touched *)
}

type analysis = {
  graph : C.t;
  summaries : int array;  (* per def: union of transitive effect bits *)
  intrinsic : int array;  (* per def: own effect bits, pre-propagation *)
  sites : site list;
  reachable : bool array;  (* from any parallel seed *)
  bfs_parent : int array;  (* BFS tree, -1 at roots *)
  bfs_root : int array;  (* seed def id per reachable def, -1 otherwise *)
}

(* ---------- intrinsic effect sites ---------- *)

let in_module m names path =
  Typed.starts_with (m ^ ".") path && List.mem (Typed.last_component path) names

let stdlib_io =
  [
    "print_string"; "print_endline"; "print_newline"; "print_char"; "print_int";
    "print_float"; "prerr_string"; "prerr_endline"; "prerr_newline"; "read_line";
    "output_string"; "output_char"; "output_byte"; "output_bytes";
    "output_value"; "input_line"; "really_input_string"; "open_in";
    "open_in_bin"; "open_out"; "open_out_bin"; "close_in"; "close_out"; "flush";
  ]

let blocking_io path =
  List.mem path (List.map (fun n -> "Stdlib." ^ n) stdlib_io)
  || List.exists
       (fun m -> in_module m stdlib_io path)
       [ "Stdlib.Out_channel"; "Stdlib.In_channel" ]
  || List.exists
       (fun m -> in_module m [ "printf"; "eprintf"; "fprintf" ] path)
       [ "Stdlib.Printf"; "Stdlib.Format" ]
  || in_module "Unix"
       [ "read"; "write"; "select"; "sleep"; "sleepf"; "openfile"; "system" ]
       path
  || in_module "Thread" [ "create"; "join"; "delay"; "yield" ] path

(* The effect an identifier occurrence carries on its own, if any;
   [Mutable_global] depends on the def it names and is handled by the
   caller. *)
let intrinsic_kind (r : C.ref_) =
  let p = r.C.r_path in
  if Typed.starts_with "Stdlib.Random." p then Some Random
  else if List.mem p [ "Stdlib.Sys.time"; "Unix.gettimeofday"; "Unix.time" ]
  then Some Clock
  else if in_module "Stdlib.Hashtbl" [ "iter"; "fold" ] p && not r.C.r_sorted
  then Some Unordered_iter
  else if blocking_io p then Some Blocking_io
  else if List.mem p [ "Stdlib.raise"; "Stdlib.raise_notrace"; "Stdlib.failwith" ]
  then Some Raises
  else if List.mem p [ "Netgraph.Graph.add_edge"; "Netgraph.Graph.remove_edge" ]
  then Some Graph_mut
  else None

let scan_sites (g : C.t) =
  let sites = ref [] in
  (* one Mutable_global site per (user, global) pair keeps repeated
     reads of the same ref from flooding the report *)
  let mut_seen = Hashtbl.create 16 in
  Array.iteri
    (fun o refs ->
      let mask = mask_of_path g.units.(g.defs.(o).C.unit_).Typed.path in
      let emit k (r : C.ref_) note =
        if bit k land mask = 0 then
          sites :=
            {
              e_def = o;
              e_kind = k;
              e_line = r.C.r_line;
              e_col = r.C.r_col;
              e_text = r.C.r_text;
              e_note = note;
            }
            :: !sites
      in
      List.iter
        (fun (r : C.ref_) ->
          Option.iter (fun k -> emit k r "") (intrinsic_kind r);
          let d = r.C.r_def in
          if d >= 0 && d <> o then begin
            let dd = g.defs.(d) in
            if dd.C.mutable_global && (not dd.C.guarded)
               && not (Hashtbl.mem mut_seen (o, d))
            then begin
              Hashtbl.replace mut_seen (o, d) ();
              emit Mutable_global r
                (Printf.sprintf "%s (%s:%d)" dd.C.name
                   g.units.(dd.C.unit_).Typed.path dd.C.line)
            end
          end)
        refs)
    g.refs;
  List.rev !sites

(* ---------- bottom-up propagation over SCCs (Tarjan) ---------- *)

let propagate (g : C.t) (sites : site list) =
  let n = Array.length g.defs in
  let intrinsic = Array.make (max n 1) 0 in
  List.iter (fun s -> intrinsic.(s.e_def) <- intrinsic.(s.e_def) lor bit s.e_kind) sites;
  let mask = Array.make (max n 1) 0 in
  Array.iteri
    (fun d (dd : C.def) -> mask.(d) <- mask_of_path g.units.(dd.C.unit_).Typed.path)
    g.defs;
  let succs = Array.make (max n 1) [] in
  Array.iteri
    (fun d calls ->
      succs.(d) <-
        List.sort_uniq Int.compare (List.map (fun (c, _, _) -> c) calls))
    g.calls;
  let summaries = Array.make (max n 1) 0 in
  (* iterative Tarjan; SCCs pop after every SCC they reach, so callee
     summaries are final when an SCC's union is taken *)
  let index = Array.make (max n 1) (-1) in
  let low = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] in
  let counter = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      (* pop the SCC rooted at v *)
      let rec pop acc =
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      let scc = pop [] in
      let bits = ref 0 in
      List.iter
        (fun w ->
          bits := !bits lor intrinsic.(w);
          List.iter
            (fun s -> if not (List.mem s scc) then bits := !bits lor summaries.(s))
            succs.(w))
        scc;
      List.iter (fun w -> summaries.(w) <- !bits land lnot mask.(w)) scc
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (summaries, intrinsic)

(* ---------- reachability from parallel seeds ---------- *)

let reach (g : C.t) =
  let n = Array.length g.defs in
  let reachable = Array.make (max n 1) false in
  let parent = Array.make (max n 1) (-1) in
  let root = Array.make (max n 1) (-1) in
  let q = Queue.create () in
  List.iter
    (fun (d, _) ->
      if not reachable.(d) then begin
        reachable.(d) <- true;
        root.(d) <- d;
        Queue.add d q
      end)
    g.seeds;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, _, _) ->
        if not reachable.(w) then begin
          reachable.(w) <- true;
          parent.(w) <- v;
          root.(w) <- root.(v);
          Queue.add w q
        end)
      g.calls.(v)
  done;
  (reachable, parent, root)

let analyze (g : C.t) =
  let sites = scan_sites g in
  let summaries, intrinsic = propagate g sites in
  let reachable, bfs_parent, bfs_root = reach g in
  {
    graph = g;
    summaries;
    intrinsic;
    sites;
    reachable;
    bfs_parent;
    bfs_root;
  }

(* witness chain from the BFS seed down to [d], as def ids *)
let chain_ids a d =
  let rec up acc v = if v < 0 then acc else up (v :: acc) a.bfs_parent.(v) in
  up [] d

let chain_names a d =
  List.map (fun v -> a.graph.C.defs.(v).C.name) (chain_ids a d)

let seed_site_of a d =
  if d < 0 || not a.reachable.(d) then None
  else
    let r = a.bfs_root.(d) in
    List.assoc_opt r a.graph.C.seeds

(* ---------- diagnostics ---------- *)

type rule_info = {
  id : string;
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;
}

let rules =
  [
    {
      id = "D001";
      family = "determinism";
      severity = Diag.Error;
      title = "no Stdlib.Random on parallel paths";
      doc =
        "Stdlib.Random calls reachable from a Netgraph.Pool callback make \
         parallel runs unreproducible (the PRNG state is shared and \
         schedule-dependent).  All randomness flows from the seeded, \
         splittable Wireless.Rand; only lib/wireless/rand.ml may touch the \
         underlying generator.  Findings carry the witness call chain from \
         the Pool seed.";
    };
    {
      id = "D002";
      family = "determinism";
      severity = Diag.Error;
      title = "no order-leaking Hashtbl iteration on parallel paths";
      doc =
        "Hashtbl.iter/fold visit bindings in hash order; on a path executed \
         inside a parallel region the visit order leaks into outputs.  \
         Route through Graph.sorted_tbl_iter/fold or sort the result (a \
         traversal passed, directly or through |> / @@, to a function \
         named *sort* is recognised); lib/netgraph/graph.ml hosts the \
         wrappers and is exempt.";
    };
    {
      id = "D003";
      family = "determinism";
      severity = Diag.Error;
      title = "no wall clocks on parallel paths";
      doc =
        "Sys.time / Unix.gettimeofday readings on a Pool-reachable path \
         differ run to run and domain to domain.  Only lib/obs (whose \
         spans and counters are merged deterministically) and bench may \
         read wall clocks.";
    };
    {
      id = "M001";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no shared toplevel mutable state on parallel paths";
      doc =
        "A module-toplevel ref / hash table / scratch array referenced by a \
         function reachable from a Netgraph.Pool callback is shared across \
         worker domains and races silently.  Use Atomic, Domain.DLS, pass \
         state explicitly, or annotate the binding with \
         (* lint: domain-local reason *).";
    };
    {
      id = "M002";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no mutable Graph construction on parallel paths";
      doc =
        "Graph.add_edge / remove_edge reachable from a Pool callback mutate \
         the Hashtbl-backed Netgraph.Graph from worker domains.  Collect \
         edge lists and seal through Netgraph.Builder/Csr, or G.of_edges / \
         G.union for legacy record shapes.";
    };
    {
      id = "E001";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no unguarded blocking I/O in parallel regions";
      doc =
        "Blocking I/O (prints, channel writes, Unix reads/writes, thread \
         ops) reachable from a Pool callback serializes the region and \
         interleaves output nondeterministically, unless some function on \
         the witness chain holds an Atomic/Domain.DLS guard that makes the \
         access single-writer.";
    };
    {
      id = "E002";
      family = "multicore-safety";
      severity = Diag.Warning;
      title = "no exceptions escaping parallel regions unhandled";
      doc =
        "raise/failwith reachable from a Pool callback with no try handler \
         anywhere on the witness chain escapes the worker domain; \
         Netgraph.Pool re-raises the first failure after the join, so an \
         undocumented escape turns one bad element into a lost region.  \
         Add a handler on the chain or suppress with the contract spelled \
         out.";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules

let severity_of_rule id =
  match find_rule id with Some r -> r.severity | None -> Diag.Error

let base_message (s : site) =
  match s.e_kind with
  | Random ->
    "use of " ^ s.e_text
    ^ ": Stdlib.Random is nondeterministic across runs; thread a seeded \
       Wireless.Rand through instead"
  | Clock ->
    "wall-clock call " ^ s.e_text
    ^ " on a parallel path breaks reproducibility; report timings through \
       Obs spans"
  | Unordered_iter ->
    s.e_text
    ^ " iterates in hash order, which can leak into outputs; route through \
       Graph.sorted_tbl_iter/fold or sort the result"
  | Mutable_global ->
    "reference to shared toplevel mutable state " ^ s.e_note
    ^ " from a parallel region; use Atomic / Domain.DLS or annotate the \
       binding with (* lint: domain-local reason *)"
  | Graph_mut ->
    s.e_text
    ^ " mutates a Hashtbl graph on a parallel path; collect an edge list \
       and seal it through Netgraph.Builder/Csr (or G.of_edges / G.union)"
  | Blocking_io ->
    "blocking I/O " ^ s.e_text
    ^ " in a parallel region without an Atomic/DLS guard on the chain"
  | Raises ->
    s.e_text
    ^ " can escape the parallel region: no try handler on the witness chain"

(* the witness chain to [d], seed first, with the Pool call site *)
let witness a d =
  String.concat " -> " (chain_names a d)
  ^
  match seed_site_of a d with
  | Some site ->
    Printf.sprintf " (Pool call at %s:%d)"
      a.graph.C.units.(site.C.site_unit).Typed.path site.C.site_line
  | None -> ""

let reachability_findings a =
  let g = a.graph in
  let out = ref [] in
  List.iter
    (fun (s : site) ->
      let d = s.e_def in
      if d >= 0 && d < Array.length a.reachable && a.reachable.(d) then begin
        let ids = chain_ids a d in
        let guard_on_chain =
          List.exists
            (fun v -> g.C.defs.(v).C.has_guard || g.C.defs.(v).C.guarded)
            ids
        in
        let try_on_chain = List.exists (fun v -> g.C.defs.(v).C.has_try) ids in
        let skip =
          match s.e_kind with
          | Blocking_io -> guard_on_chain
          | Raises -> try_on_chain
          | _ -> false
        in
        if not skip then begin
          let rule = rule_of_kind s.e_kind in
          let u = g.C.units.(g.C.defs.(d).C.unit_) in
          out :=
            {
              Diag.rule;
              severity = severity_of_rule rule;
              file = u.Typed.path;
              line = s.e_line;
              col = s.e_col;
              message = base_message s ^ "; parallel chain: " ^ witness a d;
              excerpt = Typed.excerpt u s.e_line;
            }
            :: !out
        end
      end)
    a.sites;
  List.rev !out

let findings ?only a =
  let keep (d : Diag.t) =
    match only with None -> true | Some ids -> List.mem d.Diag.rule ids
  in
  List.sort Diag.compare (List.filter keep (reachability_findings a))

(* ---------- reports: stats, DOT, per-function summary ---------- *)

type stats = {
  s_functions : int;
  s_edges : int;  (* distinct caller -> callee pairs *)
  s_seeds : int;
  s_reachable : int;
}

let distinct_edges (g : C.t) =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun caller calls ->
      List.iter
        (fun (callee, _, _) ->
          if callee <> caller then Hashtbl.replace tbl (caller, callee) ())
        calls)
    g.calls;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort compare

let stats a =
  {
    s_functions = Array.length a.graph.C.defs;
    s_edges = List.length (distinct_edges a.graph);
    s_seeds = List.length a.graph.C.seeds;
    s_reachable =
      Array.fold_left (fun n r -> if r then n + 1 else n) 0 a.reachable;
  }

let stats_json s =
  Printf.sprintf
    "{\"kind\":\"callgraph\",\"functions\":%d,\"edges\":%d,\"seeds\":%d,\"reachable\":%d}"
    s.s_functions s.s_edges s.s_seeds s.s_reachable

let node_color a d =
  let bits = a.summaries.(d) in
  let rec first = function
    | [] -> "white"
    | k :: rest -> if bits land bit k <> 0 then kind_color k else first rest
  in
  first all_kinds

(* effect-colored call graph; the parallel-reachable region sits in
   its own cluster.  Every distinct edge appears exactly once, so the
   DOT edge count matches [stats.s_edges]. *)
let to_dot a =
  let g = a.graph in
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph callgraph {\n";
  Buffer.add_string b "  rankdir=LR;\n";
  Buffer.add_string b "  node [shape=box, style=filled, fontname=\"monospace\"];\n";
  Buffer.add_string b "  subgraph cluster_parallel {\n";
  Buffer.add_string b "    label=\"parallel-reachable\";\n";
  Buffer.add_string b "    color=\"#444444\";\n";
  Array.iteri
    (fun d (dd : C.def) ->
      if a.reachable.(d) then
        Buffer.add_string b
          (Printf.sprintf "    n%d [label=\"%s\", fillcolor=\"%s\"];\n" d
             dd.C.name (node_color a d)))
    g.C.defs;
  Buffer.add_string b "  }\n";
  Array.iteri
    (fun d (dd : C.def) ->
      if not a.reachable.(d) then
        Buffer.add_string b
          (Printf.sprintf "  n%d [label=\"%s\", fillcolor=\"%s\"];\n" d
             dd.C.name (node_color a d)))
    g.C.defs;
  List.iter
    (fun (caller, callee) ->
      Buffer.add_string b (Printf.sprintf "  n%d -> n%d;\n" caller callee))
    (distinct_edges g);
  Buffer.add_string b "}\n";
  Buffer.contents b

let summary_kinds bits =
  List.filter (fun k -> bits land bit k <> 0) all_kinds

let function_summary a name =
  match C.find_def a.graph name with
  | None -> None
  | Some d ->
    let b = Buffer.create 256 in
    let u = a.graph.C.units.(d.C.unit_) in
    Buffer.add_string b
      (Printf.sprintf "%s (%s:%d)\n" d.C.name u.Typed.path d.C.line);
    let eff = summary_kinds a.summaries.(d.C.id) in
    Buffer.add_string b
      (Printf.sprintf "  effects: {%s}\n"
         (String.concat ", " (List.map kind_name eff)));
    let own = summary_kinds a.intrinsic.(d.C.id) in
    if own <> [] then
      Buffer.add_string b
        (Printf.sprintf "  intrinsic: {%s}\n"
           (String.concat ", " (List.map kind_name own)));
    if a.reachable.(d.C.id) then begin
      Buffer.add_string b "  parallel-reachable: yes\n";
      Buffer.add_string b (Printf.sprintf "  witness: %s\n" (witness a d.C.id))
    end
    else Buffer.add_string b "  parallel-reachable: no\n";
    Some (Buffer.contents b)
