module G = Netgraph.Graph

type t = {
  points : Geometry.Point.t array;
  radius : float;
  jobs : int;
  udg : G.t;
  cds : Cds.t;
  ldel_icds : Ldel.t;
  ldel_icds_g : G.t;
  ldel_icds' : G.t;
  planar_csr : Netgraph.Csr.t;
}

module Config = struct
  type radio = Disk | Quasi of { r_min : float; seed : int64 }

  type t = {
    radius : float;
    priority : (int -> int) option;
    radio : radio;
    sink : Obs.sink option;
    jobs : int;
  }

  let default =
    {
      radius = 60.;
      priority = None;
      radio = Disk;
      sink = None;
      jobs = Netgraph.Pool.default_jobs ();
    }
end

(* Enable the sink (when given) around [stages], reporting on exit. *)
let with_sink sink stages =
  match sink with
  | None -> stages ()
  | Some sink ->
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled was;
        Obs.report sink)
      stages

let pipeline (cfg : Config.t) points =
  let radius = cfg.Config.radius in
  let udg =
    (* the quasi radio draws links from a sequential RNG stream, so its
       UDG is built serially and only the later stages shard *)
    match cfg.Config.radio with
    | Config.Disk -> None
    | Config.Quasi { r_min; seed } ->
      Some
        (Obs.span "udg" (fun () ->
             Netgraph.Csr.of_graph
               (Wireless.Udg.build_quasi
                  (Wireless.Rand.create seed)
                  points ~r_min ~r_max:radius)))
  in
  let stages pool =
    Shard.pipeline ?pool ?priority:cfg.Config.priority ?udg points ~radius
  in
  (* a pool pays only once the automatic tiling splits the input;
     below that one domain runs every stage, and the kernels count *)
  if cfg.Config.jobs > 1 && Shard.auto_tiles_per_axis (Array.length points) > 1
  then
    Netgraph.Pool.with_pool ~jobs:cfg.Config.jobs (fun p -> stages (Some p))
  else stages None

let snapshot (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () -> pipeline cfg points)

(* The sealed snapshot as the Graph-typed record: one [Csr.to_graph]
   per structure, and the LDel lists as [Ldel.t]. *)
let thaw (cfg : Config.t) (s : Shard.snapshot) =
  let cds =
    Cds.thaw s.Shard.roles s.Shard.connectors
      {
        Shard.backbone = s.Shard.backbone;
        cds = s.Shard.cds;
        cds' = s.Shard.cds';
        icds = s.Shard.icds;
        icds' = s.Shard.icds';
      }
  in
  let ldel_icds = Ldel.of_parts (Array.length s.Shard.points) s.Shard.ldel in
  {
    points = s.Shard.points;
    radius = s.Shard.radius;
    jobs = max 1 cfg.Config.jobs;
    udg = Netgraph.Csr.to_graph s.Shard.udg;
    cds;
    ldel_icds;
    ldel_icds_g = ldel_icds.Ldel.planar;
    ldel_icds' = Netgraph.Csr.to_graph_over ldel_icds.Ldel.planar s.Shard.pldel';
    planar_csr = s.Shard.pldel;
  }

let run (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () ->
      Obs.span "backbone" (fun () ->
          let s = pipeline cfg points in
          Obs.span "thaw" (fun () -> thaw cfg s)))

let build ?priority points ~radius =
  run { Config.default with Config.radius; priority } points

let ldel_full t = Ldel.build t.udg t.points ~radius:t.radius

(* The structure registry: Table I order, defined in exactly one
   place.  The four baseline rows span all nodes by construction; the
   backbone family carries the paper's spans-all / backbone-only
   distinction.  Everything that enumerates structures — [structures],
   the CLI's build/dump subcommands, the experiment sweeps, the bench
   extensions — derives from these lists. *)

let baseline_registry : (string * (t -> G.t) * [ `Spans_all | `Backbone_only ]) list
    =
  [
    ("UDG", (fun t -> t.udg), `Spans_all);
    ("RNG", (fun t -> Wireless.Proximity.rng_graph t.udg t.points), `Spans_all);
    ("GG", (fun t -> Wireless.Proximity.gabriel_graph t.udg t.points), `Spans_all);
    ("LDel", (fun t -> (ldel_full t).Ldel.planar), `Spans_all);
  ]

let backbone_registry : (string * (t -> G.t) * [ `Spans_all | `Backbone_only ]) list
    =
  [
    ("CDS", (fun t -> t.cds.Cds.cds), `Backbone_only);
    ("CDS'", (fun t -> t.cds.Cds.cds'), `Spans_all);
    ("ICDS", (fun t -> t.cds.Cds.icds), `Backbone_only);
    ("ICDS'", (fun t -> t.cds.Cds.icds'), `Spans_all);
    ("LDel(ICDS)", (fun t -> t.ldel_icds_g), `Backbone_only);
    ("LDel(ICDS')", (fun t -> t.ldel_icds'), `Spans_all);
  ]

let registry = baseline_registry @ backbone_registry

let names = List.map (fun (n, _, _) -> n) registry

(* One [structures] span with a child span per entry: a command that
   derives its structures shows where that time goes. *)
let materialize entries t =
  Obs.span "structures" (fun () ->
      List.map
        (fun (name, builder, scope) ->
          (name, Obs.span name (fun () -> builder t), scope))
        entries)

let structures t = materialize registry t
let backbone_structures t = materialize backbone_registry t

let spanning_backbone_structures t =
  materialize
    (List.filter (fun (_, _, scope) -> scope = `Spans_all) backbone_registry)
    t
