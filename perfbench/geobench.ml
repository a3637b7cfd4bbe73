(* One trial of a perfbench workload (see README.md in this directory).

   The trial drives the library only through its public functions,
   times the calls into each layer from here, checks the outputs, and
   prints one JSON object on its last line: named samples, checks and
   counts.  [run.py] builds this program, repeats
   trials for the requested number of seconds, and turns the samples
   into the benchmark's metrics.

     geobench.exe WORKLOAD --seed N --query-seed N --mobility-seed N
       [--seconds S] [--trace 0|1] [--small] [--perturb CHECK]

   WORKLOAD is build, serve or monitor.  [--small] shrinks the inputs
   for the self-test; [--perturb CHECK] corrupts the result that CHECK
   inspects, so the self-test can show that the check fails. *)

module P = Geometry.Point
module Csr = Netgraph.Csr
module Builder = Netgraph.Builder
module Pool = Netgraph.Pool
module R = Core.Routing
module W = Serve.Workload

type opts = {
  workload : string;
  seed : int;
  query_seed : int;
  mobility_seed : int;
  seconds : float;
  traced : bool;
  small : bool;
  perturb : string;
}

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------- the trial record ---------------- *)

let samples : (string * float list ref) list ref = ref []
let checks : (string * bool * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

let sample name v =
  match List.assoc_opt name !samples with
  | Some l -> l := v :: !l
  | None -> samples := (name, ref [ v ]) :: !samples

let check name ok detail =
  checks := (name, ok, if ok then "" else detail) :: !checks

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let print_record o ~n ~jobs =
  let obj fields =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"
  in
  let samples_json =
    obj
      (List.rev_map
         (fun (k, l) ->
           (k, "[" ^ String.concat ", " (List.rev_map json_float !l) ^ "]"))
         !samples)
  in
  let checks_json =
    "["
    ^ String.concat ", "
        (List.rev_map
           (fun (name, ok, detail) ->
             obj
               [
                 ("name", json_string name);
                 ("ok", string_of_bool ok);
                 ("detail", json_string detail);
               ])
           !checks)
    ^ "]"
  in
  print_endline
    (obj
       [
         ( "stamp",
           obj
             [
               ("workload", json_string o.workload);
               ("seed", string_of_int o.seed);
               ("query_seed", string_of_int o.query_seed);
               ("mobility_seed", string_of_int o.mobility_seed);
               ("n", string_of_int n);
               ("jobs", json_string jobs);
               ("nproc", string_of_int (Domain.recommended_domain_count ()));
               ("ocaml", json_string Sys.ocaml_version);
               ("traced", string_of_bool o.traced);
             ] );
         ("samples", samples_json);
         ("checks", checks_json);
         ("attempted", string_of_int !attempted);
         ("failed", string_of_int !failed);
       ])

(* ---------------- shared helpers ---------------- *)

let same a b = compare a b = 0

(* Obs counters only count while the registry is enabled; a traced
   section resets and enables it, an untraced one leaves it off. *)
let with_obs f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f

let counter name = float_of_int (Obs.value (Obs.counter name))

type gc_delta = { minor_words : float; minor_gcs : int; major_gcs : int }

let gc_delta f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    } )

let record_gc (d : gc_delta) =
  sample "gc.minor_words" d.minor_words;
  sample "gc.minor_collections" (float_of_int d.minor_gcs);
  sample "gc.major_collections" (float_of_int d.major_gcs)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let component_count csr =
  let labels = Csr.component_labels csr in
  let seen = Hashtbl.create 16 in
  Array.iter (fun l -> Hashtbl.replace seen l ()) labels;
  Hashtbl.length seen

(* [csr] with every edge at node [u] removed: a result perturbed so
   that a connectivity check must notice. *)
let isolate csr u =
  let n = Csr.node_count csr in
  let rows =
    Array.init n (fun v ->
        if v = u then [||]
        else
          Array.of_list (List.filter (fun w -> w <> u) (Csr.neighbors csr v)))
  in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun v r -> offsets.(v + 1) <- offsets.(v) + Array.length r) rows;
  Csr.of_rows ~offsets ~targets:(Array.concat (Array.to_list rows)) ()

let rand seed = Wireless.Rand.create (Int64.of_int seed)

(* ---------------- build ---------------- *)

(* Bit-level fingerprint of a snapshot: each field is marshalled
   without sharing (so the bytes depend only on the value) and the
   per-field digests are digested again, which keeps the transient
   memory to one field at a time. *)
let fingerprint (s : Core.Shard.snapshot) =
  let d v = Digest.string (Marshal.to_string v [ Marshal.No_sharing ]) in
  Digest.string
    (String.concat ""
       [
         d s.points; d s.radius; d s.owners; d s.udg; d s.roles;
         d s.connectors; d s.ldel; d s.backbone; d s.cds; d s.cds'; d s.icds;
         d s.icds'; d s.pldel; d s.pldel';
       ])

let build_radius = 20.

let snapshot_at jobs pts =
  Core.Backbone.snapshot
    { Core.Backbone.Config.default with
      Core.Backbone.Config.radius = build_radius; jobs }
    pts

type stages = {
  owners : int array array;
  udg : Csr.t;
  roles : Core.Mis.role array;
  connectors : Core.Connectors.result;
  icds : Csr.t;
  ldel : Core.Ldel.csr_parts;
}

(* The sharded pipeline's stages called one by one, in pipeline order,
   on one pool ([None] at jobs = 1, as [Backbone.snapshot] does), each
   timed from here.  Returns the stage outputs and their times. *)
let replay_stages pool pts =
  let radius = build_radius in
  let n = Array.length pts in
  let owners, t_tiling =
    timed (fun () -> Core.Shard.tiling pts ~radius)
  in
  let udg, t_udg =
    timed (fun () -> Wireless.Udg.build_csr ?pool pts ~radius)
  in
  let roles, t_mis =
    timed (fun () -> Core.Mis.compute_csr ?pool ~owners udg)
  in
  let connectors, t_conn =
    timed (fun () -> Core.Connectors.find_csr ?pool ~owners udg roles)
  in
  let icds, t_seal =
    timed (fun () ->
        let backbone u =
          roles.(u) = Core.Mis.Dominator
          || connectors.Core.Connectors.connector.(u)
        in
        let b = Builder.create n in
        Csr.iter_edges udg (fun u v ->
            if backbone u && backbone v then Builder.add_edge b u v);
        Builder.seal ?pool b)
  in
  let ldel, t_ldel =
    timed (fun () -> Core.Ldel.build_csr ?pool ~owners icds pts ~radius)
  in
  ( { owners; udg; roles; connectors; icds; ldel },
    [
      ("shard.tiling_s", t_tiling);
      ("udg.build_csr_s", t_udg);
      ("mis.compute_csr_s", t_mis);
      ("connectors.find_csr_s", t_conn);
      ("builder.seal_icds_s", t_seal);
      ("ldel.build_csr_s", t_ldel);
    ] )

let check_replay ~suffix (st : stages) (s : Core.Shard.snapshot) =
  let fields =
    [
      ("owners", same st.owners s.owners);
      ("udg", same st.udg s.udg);
      ("roles", same st.roles s.roles);
      ("connectors", same st.connectors s.connectors);
      ("icds", same st.icds s.icds);
      ("ldel", same st.ldel s.ldel);
    ]
  in
  let bad = List.filter (fun (_, ok) -> not ok) fields in
  check ("stage_replay_equals_snapshot" ^ suffix) (bad = [])
    ("stages differing from Backbone.snapshot: "
    ^ String.concat "," (List.map fst bad))

let build_workload o =
  let n = if o.small then 6_000 else 200_000 in
  let side = 10. *. sqrt (float_of_int n) in
  (* set-up: the deployment.  One draw takes about 15 ms, short enough
     for a collection or a page fault to double it, so a sample is the
     mean of eight back-to-back draws (the same points each time).
     Single-domain work runs at the speed of whichever core it lands on,
     so the samples are spread over the run: two first, then one before
     each build *)
  let deploy () = Wireless.Deploy.uniform (rand o.seed) ~n ~side in
  let setup_sample () =
    Gc.compact ();
    let (), t = timed (fun () -> for _ = 1 to 8 do ignore (deploy ()) done) in
    sample "setup_s" (t /. 8.)
  in
  setup_sample ();
  setup_sample ();
  let pts = deploy () in
  (* the jobs = 2 build for the run's time budget, at least three times,
     for a median; a traced run builds it once, as the untraced
     reference *)
  let build2 () =
    setup_sample ();
    Gc.compact ();
    let snap, t = timed (fun () -> snapshot_at 2 pts) in
    sample "wall_s" t;
    (snap, t)
  in
  let t0 = now () in
  let snap2, t2 = build2 () in
  let fp2 = fingerprint snap2 in
  let reps = ref 1 in
  while (not o.traced) && (!reps < 3 || now () -. t0 < o.seconds) do
    ignore (build2 ());
    incr reps
  done;
  let udg_parts = component_count snap2.udg in
  let pldel'_parts =
    component_count
      (if o.perturb = "components" then isolate snap2.pldel' 0
       else snap2.pldel')
  in
  check "pldel_prime_components_equal_udg" (pldel'_parts = udg_parts)
    (Printf.sprintf "pldel' has %d components, the UDG %d" pldel'_parts
       udg_parts);
  if o.traced then begin
    (* exact sizes of each stage's output *)
    sample "udg.edges" (float_of_int (Csr.edge_count snap2.udg));
    sample "mis.dominators"
      (float_of_int (List.length (Core.Mis.dominators snap2.roles)));
    sample "connectors.count"
      (float_of_int
         (Array.fold_left
            (fun acc c -> if c then acc + 1 else acc)
            0 snap2.connectors.Core.Connectors.connector));
    sample "ldel.triangles"
      (float_of_int (List.length snap2.ldel.Core.Ldel.p_triangles));
    sample "ldel.kept" (float_of_int (List.length snap2.ldel.Core.Ldel.p_kept));
    sample "csr.pldel_edges" (float_of_int (Csr.edge_count snap2.pldel));
    sample "csr.pldel_prime_edges" (float_of_int (Csr.edge_count snap2.pldel'))
  end;
  setup_sample ();
  Gc.compact ();
  let snap1, t1 = timed (fun () -> snapshot_at 1 pts) in
  sample "build_j1_s" t1;
  let fp1 =
    fingerprint
      (if o.perturb = "jobs-identical" then
         { snap1 with Core.Shard.pldel' = isolate snap1.pldel' 0 }
       else snap1)
  in
  check "j1_j2_bit_identical" (fp1 = fp2)
    "Backbone.snapshot at jobs 1 and jobs 2 differ";
  attempted := !reps + 1;
  if o.traced then begin
    (* the traced pass: the same snapshot with Obs on, then the stage
       replay on one pool, per job count *)
    List.iter
      (fun jobs ->
        let suffix = Printf.sprintf ".j%d" jobs in
        let (snap, gc), t =
          with_obs (fun () ->
              let r = timed (fun () -> gc_delta (fun () -> snapshot_at jobs pts)) in
              if jobs = 2 then begin
                sample "pool.tasks" (counter "pool.tasks");
                sample "pool.parallel_for" (counter "pool.parallel_for")
              end;
              r)
        in
        if jobs = 2 then begin
          record_gc gc;
          sample "trace_overhead_pct" (100. *. ((t /. t2) -. 1.))
        end;
        check ("traced_snapshot_equals_untraced" ^ suffix)
          (fingerprint snap = fp1)
          "the snapshot built with Obs on differs from the untraced one";
        let run_replay pool =
          with_obs (fun () -> replay_stages pool pts)
        in
        let st, times =
          if jobs = 1 then run_replay None
          else Pool.with_pool ~jobs (fun p -> run_replay (Some p))
        in
        let st =
          if o.perturb = "stage-replay" then
            { st with roles = Array.map (fun _ -> Core.Mis.Dominator) st.roles }
          else st
        in
        check_replay ~suffix st snap;
        let sum = List.fold_left (fun acc (_, s) -> acc +. s) 0. times in
        List.iter (fun (name, s) -> sample (name ^ suffix) s) times;
        (* what [snapshot] spends outside the replayed stages: the
           assembly, by difference *)
        sample ("shard.assemble_s" ^ suffix) (t -. sum);
        if jobs = 1 then begin
          (* [Ldel.build_csr] runs under [Obs.quiesced], so the share
             of orientation tests that needed exact arithmetic is
             counted by the serial [Ldel.build], on the induced backbone
             within the bottom-left sixteenth of the square (the whole
             backbone would take the serial path about a minute) *)
          let corner = side /. 4. in
          let inside u = pts.(u).P.x < corner && pts.(u).P.y < corner in
          let b = Builder.create n in
          Csr.iter_edges st.icds (fun u v ->
              if inside u && inside v then Builder.add_edge b u v);
          let window = Builder.seal_graph b in
          with_obs (fun () ->
              ignore (Core.Ldel.build window pts ~radius:build_radius);
              sample "predicates.exact_share"
                (counter "predicates.orient2d.exact"
                /. Float.max 1. (counter "predicates.orient2d")))
        end)
      [ 2; 1 ]
  end;
  (n, "2,1")

(* ---------------- serve ---------------- *)

let serve_radius = 25.

(* About half of one domain's closed-loop capacity on this workload
   when the benchmark was added (40-48k queries/s at jobs = 1 on a
   2-core machine).  Fixed, so open-loop runs compare across commits. *)
let open_rate = 20_000.

let serve_mix = { W.greedy = 0.45; gfg = 0.35; compass = 0.20; stretch = 1e-4 }
let serve_skew = W.Hotspot { nodes = 64; frac = 0.3 }
let serve_batch = 1024

(* exact order statistic: the smallest sample with at least [q] of the
   samples at or below it *)
let percentile sorted q =
  let k = Array.length sorted in
  sorted.(max 0 (min (k - 1) (int_of_float (ceil (q *. float_of_int k)) - 1)))

let serve_setup ~seed ~n =
  let side = 10. *. sqrt (float_of_int n) in
  let store, t =
    timed (fun () ->
        let pts, _ =
          Wireless.Deploy.connected_uniform (rand seed) ~n ~side
            ~radius:serve_radius ~max_attempts:50
        in
        let snap, t_snap =
          timed (fun () ->
              Core.Backbone.snapshot
                { Core.Backbone.Config.default with
                  Core.Backbone.Config.radius = serve_radius; jobs = 2 }
                pts)
        in
        let store, t_store = timed (fun () -> Serve.Store.create snap) in
        sample "backbone.snapshot_s" t_snap;
        sample "store.create_s" t_store;
        store)
  in
  sample "setup_s" t;
  store

(* Per-kernel totals of a replay, summed over every stream. *)
type replay_stats = {
  mutable calls : int;
  mutable secs : float;
  mutable delivered : int;
  mutable steps : float;
}

let kernels =
  [
    ("greedy", [ W.k_greedy ], R.greedy_into);
    ("gfg", [ W.k_gfg; W.k_stretch ], R.gfg_into);
    ("compass", [ W.k_compass ], R.compass_into);
  ]

(* Replays [w]'s queries kind by kind on one pinned epoch with one
   scratch, adding each kernel's calls, time and deliveries to [stats];
   returns the hop count per query. *)
let replay_queries stats store (w : W.t) =
  let e = Serve.Store.pin store in
  let view = Serve.Store.view e and pts = Serve.Store.points e in
  let sc = R.Scratch.create ~n:(Serve.Store.node_count e) () in
  let hops = Array.make w.W.count (-1) in
  List.iter
    (fun (name, kinds, kernel) ->
      let qs =
        Array.of_list
          (List.filter
             (fun q -> List.mem w.W.kind.(q) kinds)
             (List.init w.W.count Fun.id))
      in
      let steps0 = counter "routing.gfg.steps" in
      let (), t =
        timed (fun () ->
            Array.iter
              (fun q ->
                hops.(q) <- kernel sc view pts ~src:w.W.src.(q) ~dst:w.W.dst.(q))
              qs)
      in
      let st = List.assoc name stats in
      st.calls <- st.calls + Array.length qs;
      st.secs <- st.secs +. t;
      st.steps <- st.steps +. counter "routing.gfg.steps" -. steps0;
      Array.iter (fun q -> if hops.(q) >= 0 then st.delivered <- st.delivered + 1) qs)
    kernels;
  hops

(* The stretch probes' shortest-path denominator: (probes, seconds). *)
let dijkstra_probes store (w : W.t) =
  let e = Serve.Store.pin store in
  let udg_w = Serve.Store.udg_w e in
  let heap = Netgraph.Heap.create ()
  and dist = Array.make (Serve.Store.node_count e) infinity in
  let probes = ref 0 and total = ref 0. in
  for q = 0 to w.W.count - 1 do
    if w.W.kind.(q) = W.k_stretch then begin
      let (), t =
        timed (fun () -> Csr.dijkstra_into udg_w ~heap ~dist w.W.src.(q))
      in
      incr probes;
      total := !total +. t
    end
  done;
  (!probes, !total)

(* Seed of deployment [d] of a run: [d = 0] is the run's own seed. *)
let deployment_seed seed d = if d = 0 then seed else (seed * 16) + d

let serve_workload o =
  let n = if o.small then 3_000 else 50_000 in
  (* Every run serves several deployments, and on each several query
     streams with their own hotspot sets: which 64 nodes are hot moves
     one stream's cost by about 10%, and the deployment moves it too,
     so the headline averages over both.  A traced run uses one
     deployment. *)
  let deployments = if o.traced then 1 else 3 in
  let streams = if o.small then 2 else 4 in
  let per_stream = if o.small then 2_500 else 25_000 in
  let queries = ref 0 and delivered = ref 0 in
  let pass_times = ref [] in
  let leg budget ~last d =
    Gc.compact ();
    let store = serve_setup ~seed:(deployment_seed o.seed d) ~n in
    let generate ?rate i =
      W.generate
        ~seed:(Int64.of_int ((deployment_seed o.query_seed d * 1000) + i))
        ~n ~count:per_stream ~mix:serve_mix ~skew:serve_skew ?rate ()
    in
    let closed_w = Array.init streams (fun i -> generate i) in
    let reference = Array.make streams None in
    let account what i (r : Serve.Engine.results) =
      queries := !queries + r.count;
      Array.iter (fun h -> if h >= 0 then incr delivered) r.hops;
      match reference.(i) with
      | None -> reference.(i) <- Some r.hops
      | Some h ->
        check ("serve_hops_repeat_" ^ what) (same h r.hops)
          ("a " ^ what ^ " pass answered differently from the first pass")
    in
    (* closed loop at jobs = 2, one pass = every stream once *)
    let closed ~traced budget =
      Pool.with_pool ~jobs:2 (fun pool ->
          let t0 = now () in
          let times = ref [] and words = ref [] in
          let go () =
            while List.length !times < 2 || now () -. t0 < budget do
              let secs = ref 0. and minor = ref 0. in
              Array.iteri
                (fun i w ->
                  let r =
                    Serve.Engine.run ~pool ~batch:serve_batch ~latency:false
                      ~store w
                  in
                  account "closed" i r;
                  secs := !secs +. r.elapsed_s;
                  minor := !minor +. r.minor_words)
                closed_w;
              times := !secs :: !times;
              words := (!minor /. float_of_int (streams * per_stream)) :: !words
            done
          in
          if traced then with_obs go else go ();
          (median !times, median !words))
    in
    let pass_u, _ = closed ~traced:false budget in
    pass_times := pass_u :: !pass_times;
    sample "serve_qps" (float_of_int (streams * per_stream) /. pass_u);
    if o.traced then begin
      let pass_t, words = closed ~traced:true budget in
      sample "trace_overhead_pct" (100. *. ((pass_t /. pass_u) -. 1.));
      sample "engine.minor_words_per_query.closed" words
    end;
    if last then begin
      (* open loop at jobs = 1 over the same queries, on a schedule:
         latency from each query's scheduled arrival, exact order
         statistics over every query served *)
      let open_w = Array.init streams (fun i -> generate ~rate:open_rate i) in
      Array.iteri
        (fun i (w : W.t) ->
          let c = closed_w.(i) in
          check "open_queries_equal_closed"
            (same (w.W.kind, w.W.src, w.W.dst) (c.W.kind, c.W.src, c.W.dst))
            "the open-loop workload does not serve the closed-loop queries")
        open_w;
      let lat = ref [] and backlog = ref [] and ratio = ref [] in
      let words = ref [] in
      let open_pass i (w : W.t) =
        let r, gc =
          gc_delta (fun () ->
              Serve.Engine.run ~jobs:1 ~batch:serve_batch ~latency:true ~store
                w)
        in
        account "open" i r;
        if o.traced then record_gc gc;
        lat := r.latency_us :: !lat;
        let last = w.W.arrival_us.(w.W.count - 1) /. 1e6 in
        backlog := (r.elapsed_s -. last) :: !backlog;
        ratio :=
          (Array.fold_left Float.max 0. r.batch_s
          /. median (Array.to_list r.batch_s))
          :: !ratio;
        words := (r.minor_words /. float_of_int r.count) :: !words
      in
      if o.traced then with_obs (fun () -> Array.iteri open_pass open_w)
      else Array.iteri open_pass open_w;
      let sorted = Array.concat !lat in
      Array.sort compare sorted;
      sample "serve_p50_us" (percentile sorted 0.50);
      sample "serve_p99_us" (percentile sorted 0.99);
      sample "serve.latency_samples" (float_of_int (Array.length sorted));
      if o.traced then begin
        sample "engine.minor_words_per_query.open" (median !words);
        sample "engine.backlog_s" (median !backlog);
        sample "engine.batch_s.max_over_median" (median !ratio)
      end;
      (* the engine's answers, query by query, against the bare kernels *)
      let stats =
        List.map
          (fun (name, _, _) ->
            (name, { calls = 0; secs = 0.; delivered = 0; steps = 0. }))
          kernels
      in
      let replay () =
        let diff = ref 0 in
        Array.iteri
          (fun i w ->
            let replayed = replay_queries stats store w in
            if o.perturb = "replay-hops" && i = 0 then
              replayed.(0) <- (if replayed.(0) >= 0 then -1 else 0);
            match reference.(i) with
            | Some h ->
              Array.iteri (fun q x -> if x <> replayed.(q) then incr diff) h
            | None -> diff := !diff + w.W.count)
          closed_w;
        check "replayed_hops_equal_engine" (!diff = 0)
          (Printf.sprintf
             "%d of %d queries routed differently by the bare kernels" !diff
             (streams * per_stream))
      in
      if o.traced then begin
        with_obs replay;
        List.iter
          (fun (name, st) ->
            sample (Printf.sprintf "routing.%s_into_us" name)
              (st.secs *. 1e6 /. float_of_int (max 1 st.calls));
            sample (Printf.sprintf "routing.%s.delivered" name)
              (float_of_int st.delivered))
          stats;
        let gfg = List.assoc "gfg" stats in
        sample "routing.gfg.steps_per_query"
          (gfg.steps /. float_of_int (max 1 gfg.calls));
        let probes, secs =
          Array.fold_left
            (fun (p, s) w ->
              let p', s' = dijkstra_probes store w in
              (p + p', s +. s'))
            (0, 0.) closed_w
        in
        sample "csr.dijkstra_into_us"
          (secs *. 1e6 /. float_of_int (max 1 probes))
      end
      else replay ()
    end
  in
  (* the closed loop gets most of the time, split over the
     deployments; the open loop's length is fixed by the rate *)
  let budget = o.seconds *. 0.75 /. float_of_int deployments in
  let budget = if o.traced then budget /. 2. else budget in
  for d = 0 to deployments - 1 do
    leg budget ~last:(d = deployments - 1) d
  done;
  (* wall_s: a closed-loop pass, averaged over the deployments *)
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  if not o.traced then sample "wall_s" (mean !pass_times);
  sample "serve_delivered_pct"
    (100. *. float_of_int !delivered /. float_of_int (max 1 !queries));
  attempted := !queries;
  (n, "2,1")

(* ---------------- monitor ---------------- *)

let monitor_radius = 25.

type round = { edge_changes : int; role_changes : int; violations : int }

let monitor_workload o =
  let n = if o.small then 400 else 5_000 in
  let side = 10. *. sqrt (float_of_int n) in
  let setup d =
    let (pts, bb), t =
      timed (fun () ->
          let pts, _ =
            Wireless.Deploy.connected_uniform
              (rand (deployment_seed o.seed d))
              ~n ~side
              ~radius:monitor_radius ~max_attempts:50
          in
          (pts, Core.Backbone.build pts ~radius:monitor_radius))
    in
    sample "setup_s" t;
    let model =
      Wireless.Mobility.random_waypoint
        (rand (deployment_seed o.mobility_seed d))
        ~side ~min_speed:1. ~max_speed:3. ~init:pts
    in
    let mon =
      Core.Monitor.create ~stretch_sources:8
        ~seed:(Int64.of_int (deployment_seed o.mobility_seed d))
        ~jobs:2 ()
    in
    (ref bb, model, mon)
  in
  let run_rounds ~traced ~until (bb, model, mon) =
    let rounds = ref [] and times = ref [] in
    let r = ref 0 in
    while until !r do
      incr r;
      let round = !r in
      let ((), gc), t_round =
        timed (fun () ->
            gc_delta (fun () ->
                let (), t_step =
                  timed (fun () -> Wireless.Mobility.step model)
                in
                let positions = Array.copy (Wireless.Mobility.positions model) in
                let (next, st), t_refresh =
                  timed (fun () -> Core.Maintenance.refresh !bb positions)
                in
                let next =
                  if o.perturb = "violations" && round = 1 && not traced then
                    (* a routing structure with node 0 cut off *)
                    let g = Netgraph.Graph.copy next.Core.Backbone.ldel_icds' in
                    List.iter
                      (fun v -> Netgraph.Graph.remove_edge g 0 v)
                      (Netgraph.Graph.neighbors g 0);
                    { next with Core.Backbone.ldel_icds' = g }
                  else next
                in
                bb := next;
                let vs, t_observe =
                  timed (fun () -> Core.Monitor.observe mon ~round next)
                in
                rounds :=
                  {
                    edge_changes = st.Core.Maintenance.edge_changes;
                    role_changes = st.Core.Maintenance.role_changes;
                    violations = List.length vs;
                  }
                  :: !rounds;
                if traced then begin
                  sample "mobility.step_s" t_step;
                  sample "maintenance.refresh_s" t_refresh;
                  sample "monitor.observe_s" t_observe
                end))
      in
      if traced then begin
        record_gc gc;
        (* the two probes that dominate [observe], called on their own *)
        let pts = !bb.Core.Backbone.points in
        let g = !bb.Core.Backbone.ldel_icds_g in
        let crossings, t_planar =
          timed (fun () -> Netgraph.Planarity.crossing_pairs g pts)
        in
        sample "planarity.crossing_pairs_s" t_planar;
        sample "planarity.edges" (float_of_int (Netgraph.Graph.edge_count g));
        let seen =
          Obs.Telemetry.last (Core.Monitor.telemetry mon) "crossings"
        in
        check "planarity_matches_monitor"
          (seen = Some (float_of_int (List.length crossings)))
          "Planarity.crossing_pairs disagrees with the monitor's probe";
        let sources =
          Array.init (min 8 n) (fun i -> (i * 7919 + round) mod n)
        in
        let sssp0 = counter "metrics.sssp" in
        let _, t_stretch =
          timed (fun () ->
              Netgraph.Metrics.sampled_stretch ~jobs:2 ~sources
                ~base:!bb.Core.Backbone.udg ~sub:!bb.Core.Backbone.ldel_icds'
                pts)
        in
        sample "metrics.sampled_stretch_s" t_stretch;
        sample "metrics.sssp" (counter "metrics.sssp" -. sssp0)
      end;
      times := t_round :: !times
    done;
    (List.rev !rounds, !times)
  in
  (* Every run moves several deployments in turn: the deployment sets
     the backbone's size, which the all-pairs planarity scan in
     [observe] feels squared, so the headline averages over them.  A
     traced run uses one deployment. *)
  let deployments = if o.traced then 1 else 3 in
  let budget = o.seconds /. float_of_int (if o.traced then 3 else deployments) in
  let all = ref [] and medians = ref [] in
  for d = 0 to deployments - 1 do
    let t0 = now () in
    let rounds, times =
      run_rounds ~traced:false
        ~until:(fun r -> r < 2 || now () -. t0 < budget)
        (setup d)
    in
    all := !all @ rounds;
    medians := median times :: !medians
  done;
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  if o.traced then begin
    (* the same rounds again from a fresh set-up, traced; the
       maintenance and monitor outputs must not change *)
    let untraced = !all in
    let k = List.length untraced in
    let traced, traced_times =
      with_obs (fun () ->
          run_rounds ~traced:true ~until:(fun r -> r < k) (setup 0))
    in
    check "traced_rounds_equal_untraced" (same traced untraced)
      "maintenance or monitor answered differently with tracing on";
    let total f =
      float_of_int (List.fold_left (fun acc r -> acc + f r) 0 traced)
    in
    sample "maintenance.edge_changes" (total (fun r -> r.edge_changes));
    sample "maintenance.role_changes" (total (fun r -> r.role_changes));
    let untraced_round = mean !medians in
    sample "monitor_round_s" untraced_round;
    sample "trace_overhead_pct"
      (100. *. ((median traced_times /. untraced_round) -. 1.));
    all := untraced @ traced
  end
  else sample "wall_s" (mean !medians);
  let violations =
    List.fold_left (fun acc r -> acc + r.violations) 0 !all
  in
  check "zero_violations" (violations = 0)
    (Printf.sprintf "%d invariant violations" violations);
  sample "monitor_violations" (float_of_int violations);
  attempted := List.length !all;
  failed := List.length (List.filter (fun r -> r.violations > 0) !all);
  (n, "2")

(* ---------------- command line ---------------- *)

let usage () =
  prerr_endline
    "usage: geobench.exe build|serve|monitor --seed N --query-seed N \
     --mobility-seed N [--seconds S] [--trace 0|1] [--small] [--perturb \
     CHECK]";
  exit 2

let parse argv =
  let workload = ref "" and seed = ref None and qs = ref None
  and ms = ref None and seconds = ref 10. and traced = ref false
  and small = ref false and perturb = ref "" in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--seed" :: v :: rest -> seed := Some (int_arg v); go rest
    | "--query-seed" :: v :: rest -> qs := Some (int_arg v); go rest
    | "--mobility-seed" :: v :: rest -> ms := Some (int_arg v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := s
      | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> traced := false | "1" -> traced := true | _ -> usage ());
      go rest
    | "--small" :: rest -> small := true; go rest
    | "--perturb" :: v :: rest -> perturb := v; go rest
    | w :: rest when !workload = "" && String.length w > 0 && w.[0] <> '-' ->
      workload := w;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  let required r = match r with Some v -> v | None -> usage () in
  {
    workload = !workload;
    seed = required !seed;
    query_seed = required !qs;
    mobility_seed = required !ms;
    seconds = !seconds;
    traced = !traced;
    small = !small;
    perturb = !perturb;
  }

let () =
  let o = parse Sys.argv in
  Obs.set_enabled false;
  let n, jobs =
    match o.workload with
    | "build" -> build_workload o
    | "serve" -> serve_workload o
    | "monitor" -> monitor_workload o
    | _ -> usage ()
  in
  print_record o ~n ~jobs;
  if List.exists (fun (_, ok, _) -> not ok) !checks then exit 1
