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
  type partition = Auto | Tiles of int | Serial

  type t = {
    radius : float;
    priority : (int -> int) option;
    radio : radio;
    sink : Obs.sink option;
    jobs : int;
    partition : partition;
  }

  let default =
    {
      radius = 60.;
      priority = None;
      radio = Disk;
      sink = None;
      jobs = Netgraph.Pool.default_jobs ();
      partition = Auto;
    }
end

(* Instances below this size gain nothing from tiling: the serial
   chain finishes in milliseconds and avoids the per-stage scratch. *)
let auto_partition_threshold = 5_000

let add_dominatee_links udg roles g =
  let links = ref [] in
  Array.iteri
    (fun u r ->
      if r = Mis.Dominatee then
        List.iter
          (fun d -> links := (u, d) :: !links)
          (Mis.dominators_of udg roles u))
    roles;
  G.union g (G.of_edges (G.node_count g) !links)

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

let with_jobs jobs f =
  if jobs > 1 then Netgraph.Pool.with_pool ~jobs (fun p -> f (Some p))
  else f None

let quasi_udg points ~radius ~r_min ~seed =
  Wireless.Udg.build_quasi
    (Wireless.Rand.create seed)
    points ~r_min ~r_max:radius

let partitioned (cfg : Config.t) n =
  match cfg.Config.partition with
  | Config.Serial -> false
  | Config.Tiles _ -> true
  | Config.Auto -> (
    n >= auto_partition_threshold
    && match cfg.Config.radio with Config.Disk -> true | Config.Quasi _ -> false)

let run_sharded (cfg : Config.t) points =
  let radius = cfg.Config.radius in
  Obs.span "backbone" (fun () ->
      let tiles =
        match cfg.Config.partition with Config.Tiles k -> Some k | _ -> None
      in
      let pre_udg =
        (* the quasi radio draws links from a sequential RNG stream, so
           its UDG is built serially and only the later stages shard *)
        match cfg.Config.radio with
        | Config.Disk -> None
        | Config.Quasi { r_min; seed } ->
          Some
            (Obs.span "udg" (fun () ->
                 Netgraph.Csr.of_graph (quasi_udg points ~radius ~r_min ~seed)))
      in
      let snap =
        with_jobs cfg.Config.jobs (fun pool ->
            Shard.pipeline ?pool ?tiles ?priority:cfg.Config.priority
              ?udg:pre_udg points ~radius)
      in
      (* rebuild the legacy record from the snapshot: the stitched
         role/connector/LDel lists equal the serial ones, so these
         adapters reproduce [run]'s serial output graph for graph *)
      Obs.span "thaw" (fun () ->
          let udg = Netgraph.Csr.to_graph snap.Shard.udg in
          let cds = Cds.build udg snap.Shard.roles snap.Shard.connectors in
          let ldel_icds = Ldel.of_parts (Array.length points) snap.Shard.ldel in
          let ldel_icds_g = ldel_icds.Ldel.planar in
          let ldel_icds' =
            add_dominatee_links udg snap.Shard.roles ldel_icds_g
          in
          {
            points;
            radius;
            jobs = max 1 cfg.Config.jobs;
            udg;
            cds;
            ldel_icds;
            ldel_icds_g;
            ldel_icds';
            planar_csr = snap.Shard.pldel;
          }))

let run_serial (cfg : Config.t) points =
  let radius = cfg.Config.radius in
  Obs.span "backbone" (fun () ->
      let udg =
        Obs.span "udg" (fun () ->
            match cfg.Config.radio with
            | Config.Disk -> Wireless.Udg.build points ~radius
            | Config.Quasi { r_min; seed } ->
              quasi_udg points ~radius ~r_min ~seed)
      in
      let cds = Cds.of_udg ?priority:cfg.Config.priority udg in
      let ldel_icds =
        Obs.span "ldel" (fun () -> Ldel.build cds.Cds.icds points ~radius)
      in
      let ldel_icds_g = ldel_icds.Ldel.planar in
      let ldel_icds' =
        Obs.span "links" (fun () ->
            add_dominatee_links udg cds.Cds.roles ldel_icds_g)
      in
      {
        points;
        radius;
        jobs = max 1 cfg.Config.jobs;
        udg;
        cds;
        ldel_icds;
        ldel_icds_g;
        ldel_icds';
        planar_csr = Netgraph.Csr.of_graph ~points ldel_icds_g;
      })

let run (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () ->
      if partitioned cfg (Array.length points) then run_sharded cfg points
      else run_serial cfg points)

let snapshot (cfg : Config.t) points =
  let radius = cfg.Config.radius in
  with_sink cfg.Config.sink (fun () ->
      let tiles =
        match cfg.Config.partition with Config.Tiles k -> Some k | _ -> None
      in
      let pre_udg =
        match cfg.Config.radio with
        | Config.Disk -> None
        | Config.Quasi { r_min; seed } ->
          Some (Netgraph.Csr.of_graph (quasi_udg points ~radius ~r_min ~seed))
      in
      with_jobs cfg.Config.jobs (fun pool ->
          Shard.pipeline ?pool ?tiles ?priority:cfg.Config.priority ?udg:pre_udg
            points ~radius))

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
