module G = Netgraph.Graph
module Csr = Netgraph.Csr

type t = {
  roles : Mis.role array;
  connectors : Connectors.result;
  backbone : bool array;
  cds : G.t;
  cds' : G.t;
  icds : G.t;
  icds' : G.t;
}

let thaw roles connectors (f : Shard.cds_family) =
  let cds = Csr.to_graph f.Shard.cds and icds = Csr.to_graph f.Shard.icds in
  {
    roles;
    connectors;
    backbone = f.Shard.backbone;
    cds;
    cds' = Csr.to_graph_over cds f.Shard.cds';
    icds;
    icds' = Csr.to_graph_over icds f.Shard.icds';
  }

let build udg roles connectors =
  thaw roles connectors (Shard.cds_family (Csr.of_graph udg) roles connectors)

let of_udg ?priority udg =
  let csr = Csr.of_graph udg in
  let roles = Mis.compute_csr ?priority csr in
  let connectors = Connectors.find_csr csr roles in
  thaw roles connectors (Shard.cds_family csr roles connectors)

let backbone_nodes t =
  let acc = ref [] in
  Array.iteri (fun u b -> if b then acc := u :: !acc) t.backbone;
  List.rev !acc

let dominator_of t udg u =
  if t.backbone.(u) then u
  else
    match Mis.dominators_of udg t.roles u with
    | d :: _ -> d
    | [] -> invalid_arg "Cds.dominator_of: node has no dominator"
