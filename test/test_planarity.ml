(* Grid-bucketed crossing detection against the all-pairs scan it
   replaced: the same pairs in the same order on random deployments
   and on hostile hand-made and generated inputs, and a bounded number
   of candidate pairs per edge at scale. *)

module P = Geometry.Point
module G = Netgraph.Graph
module V = Netgraph.View
module Pl = Netgraph.Planarity

(* ---------------- oracle: the quadratic scan ---------------- *)

(* Every pair of edges in [View.edges] order, kept when the edges share
   no endpoint and properly cross. *)
let oracle v points =
  let segs =
    Array.of_list
      (List.map
         (fun (u, w) -> ((u, w), Geometry.Segment.make points.(u) points.(w)))
         (V.edges v))
  in
  let m = Array.length segs in
  let acc = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let ((u1, v1) as e1), s1 = segs.(i) and ((u2, v2) as e2), s2 = segs.(j) in
      if
        (not (u1 = u2 || u1 = v2 || v1 = u2 || v1 = v2))
        && Geometry.Segment.properly_intersect s1 s2
      then acc := (e1, e2) :: !acc
    done
  done;
  List.rev !acc

(* All three entry points answer as the oracle does, over the Hashtbl
   graph and over its sealed CSR form. *)
let agrees g points =
  let want = oracle (V.of_graph g) points in
  List.for_all
    (fun v ->
      Pl.crossing_pairs_v v points = want
      && Pl.crossing_count_v v points = List.length want
      && Pl.is_planar_v v points = (want = []))
    [ V.of_graph g; V.of_csr (Netgraph.Csr.of_graph g) ]

let pp_pairs ps =
  String.concat "; "
    (List.map
       (fun ((a, b), (c, d)) -> Printf.sprintf "(%d,%d)x(%d,%d)" a b c d)
       ps)

let expect name want g points =
  Alcotest.(check string) name (pp_pairs want)
    (pp_pairs (Pl.crossing_pairs g points));
  Alcotest.(check bool) (name ^ " agrees") true (agrees g points)

(* ---------------- hand-made hostile cases ---------------- *)

let pts l = Array.of_list (List.map (fun (x, y) -> P.make x y) l)

let test_empty () =
  expect "no nodes" [] (G.create 0) [||];
  expect "no edges" [] (G.create 3) (pts [ (0., 0.); (1., 1.); (2., 0.) ])

let test_single_edge () =
  expect "one edge" [] (G.of_edges 2 [ (0, 1) ]) (pts [ (0., 0.); (3., 4.) ])

let test_shared_endpoints () =
  (* a star and a closed fan: every pair meets only at a node *)
  let p =
    pts [ (0., 0.); (1., 0.); (0., 1.); (-1., 0.); (0., -1.); (1., 1.) ]
  in
  let g =
    G.of_edges 6 [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5); (1, 5); (2, 5) ]
  in
  expect "star" [] g p

let test_collinear_overlap () =
  (* three overlapping pieces of one line, and a fourth continuing it *)
  let p =
    pts
      [ (0., 0.); (4., 0.); (1., 0.); (3., 0.); (2., 0.); (6., 0.); (6., 0.);
        (8., 0.) ]
  in
  let g = G.of_edges 8 [ (0, 1); (2, 3); (4, 5); (6, 7) ] in
  expect "overlap" [] g p

let test_t_junctions () =
  (* endpoints on another edge's interior, from one side and from both *)
  let p =
    pts
      [ (0., 0.); (2., 0.); (1., 0.); (1., 1.); (1., -1.); (0.5, 0.);
        (0.5, 2.) ]
  in
  let g = G.of_edges 7 [ (0, 1); (2, 3); (4, 2); (5, 6) ] in
  expect "T" [] g p

let test_zero_length () =
  (* nodes 0 and 1 coincide at the crossing point of the two diagonals:
     the zero-length edge crosses nothing, the diagonals cross once *)
  let p = pts [ (1., 1.); (1., 1.); (0., 0.); (2., 2.); (0., 2.); (2., 0.) ] in
  let g = G.of_edges 6 [ (0, 1); (2, 3); (4, 5) ] in
  expect "coincident" [ ((2, 3), (4, 5)) ] g p;
  (* only zero-length edges, far apart: the longest edge is 0 *)
  let p = pts [ (0., 0.); (0., 0.); (1e6, 1e6); (1e6, 1e6) ] in
  expect "all zero-length" [] (G.of_edges 4 [ (0, 1); (2, 3) ]) p

let test_long_and_short () =
  (* one long edge across a row of 100 short ones, plus short edges far
     from it: the long edge sets the cell side, the far edges make the
     grid span many cells *)
  let k = 100 in
  let p =
    Array.init ((2 * k) + 6) (fun i ->
        if i = 0 then P.make 0. 0.5
        else if i = 1 then P.make 100. 0.5
        else if i < (2 * k) + 2 then
          let c = (i - 2) / 2 in
          P.make (0.5 +. float_of_int c) (float_of_int ((i - 2) mod 2))
        else
          let c = i - ((2 * k) + 2) in
          P.make
            (1000. +. float_of_int (c / 2))
            (1000. +. float_of_int (c mod 2)))
  in
  let edges =
    (0, 1)
    :: List.init k (fun c -> ((2 * c) + 2, (2 * c) + 3))
    @ [ ((2 * k) + 2, (2 * k) + 5); ((2 * k) + 3, (2 * k) + 4) ]
  in
  let g = G.of_edges (Array.length p) edges in
  let want =
    List.init k (fun c -> ((0, 1), ((2 * c) + 2, (2 * c) + 3)))
    @ [ (((2 * k) + 2, (2 * k) + 5), ((2 * k) + 3, (2 * k) + 4)) ]
  in
  expect "comb" want g p

let test_far_from_origin () =
  (* millimetre-long crossing edges a thousand kilometres out: the
     cell-side margin must absorb rounding relative to the coordinates *)
  let o = 1e6 in
  let p =
    pts
      [ (o, o); (o +. 1e-3, o +. 1e-3); (o, o +. 1e-3); (o +. 1e-3, o);
        (o +. 2e-3, o); (o +. 3e-3, o +. 1e-3) ]
  in
  let g = G.of_edges 6 [ (0, 1); (2, 3); (3, 5); (1, 4) ] in
  expect "far" [ ((0, 1), (2, 3)); ((1, 4), (3, 5)) ] g p

(* ---------------- differential properties ---------------- *)

(* random connected deployments: the UDG (many crossings), LDel¹ and
   PLDel of the whole UDG, and PLDel(ICDS) with and without the
   dominatee links *)
let gen_deployment =
  QCheck.Gen.(
    map3
      (fun seed n radius -> (seed, n, radius))
      (int_bound 1_000_000) (int_range 10 80) (float_range 30. 70.))

let print_deployment (seed, n, radius) =
  Printf.sprintf "seed=%d n=%d radius=%g" seed n radius

let prop_random_deployments =
  QCheck.Test.make ~name:"planarity = all-pairs scan on deployments"
    ~count:40
    (QCheck.make ~print:print_deployment gen_deployment)
    (fun (seed, n, radius) ->
      let rng = Wireless.Rand.create (Int64.of_int (seed + 1)) in
      let points = Wireless.Deploy.uniform rng ~n ~side:200. in
      let bb = Core.Backbone.build points ~radius in
      let l = Core.Ldel.build bb.Core.Backbone.udg points ~radius in
      List.for_all
        (fun g -> agrees g points)
        [
          bb.Core.Backbone.udg;
          l.Core.Ldel.ldel1;
          l.Core.Ldel.planar;
          bb.Core.Backbone.ldel_icds_g;
          bb.Core.Backbone.ldel_icds';
        ])

(* Small lattices in four coordinate frames with random edge sets:
   forces collinear overlaps, T-junctions, shared and coincident
   endpoints, and shrinks any failure to a small graph.  Edges longer
   than [reach] lattice steps are dropped, so that short reaches spread
   the edges over several grid cells; the cubic frame mixes lengths
   within one reach. *)
let frame kind a =
  let a = float_of_int a in
  match kind with
  | 0 -> a (* exact unit lattice *)
  | 1 -> 1e6 +. (a *. 1e-3) (* tiny edges far from the origin *)
  | 2 -> a *. a *. a (* spacing from 1 to 331: long and short edges *)
  | _ -> 0.1 +. (a *. 0.1) (* inexact decimals *)

let arb_hostile =
  QCheck.(
    quad (int_bound 3) (int_range 1 12)
      (list_of_size Gen.(1 -- 40) (pair (int_bound 12) (int_bound 12)))
      (list_of_size Gen.(0 -- 60) (pair small_nat small_nat)))

let hostile_graph (kind, reach, coords, pairs) =
  let lattice = Array.of_list coords in
  let points =
    Array.map (fun (a, b) -> P.make (frame kind a) (frame kind b)) lattice
  in
  let n = Array.length points in
  let g = G.create n in
  List.iter
    (fun (u, v) ->
      let u = u mod n and v = v mod n in
      let (ax, ay), (bx, by) = (lattice.(u), lattice.(v)) in
      if u <> v && max (abs (ax - bx)) (abs (ay - by)) <= reach then
        G.add_edge g u v)
    pairs;
  (g, points)

let prop_hostile =
  QCheck.Test.make ~name:"planarity = all-pairs scan on lattices" ~count:600
    arb_hostile (fun input ->
      let g, points = hostile_graph input in
      agrees g points)

(* ---------------- scaling gate ---------------- *)

(* Candidate pairs per edge on PLDel(ICDS) of a uniform 20k-node
   deployment (side 1414, radius 25: the density of `spanner_cli build
   -n 20000 --side 1414 -r 25`; 26,971 edges here).  Every edge is at
   most one radius long, so the cells are about a radius wide and hold
   m r^2 / side^2 ~ 8.4 edge midpoints each; an edge meets the later
   half of its 3x3 block, 9/2 x 8.4 ~ 38 candidates (38.65 measured).
   The all-pairs scan tests (m - 1) / 2 ~ 13,500 per edge. *)
let max_candidates_per_edge = 50.

let test_candidates_bound () =
  let rng = Wireless.Rand.create 20_000L in
  let points = Wireless.Deploy.uniform rng ~n:20_000 ~side:1414. in
  let snap = Core.Shard.pipeline points ~radius:25. in
  let v = V.of_csr snap.Core.Shard.pldel in
  let c = Obs.counter "planarity.candidates" in
  let before = Obs.value c in
  let was_on = Obs.enabled () in
  let planar =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled was_on)
      (fun () ->
        Obs.set_enabled true;
        Pl.is_planar_v v points)
  in
  let per_edge =
    float_of_int (Obs.value c - before) /. float_of_int (V.edge_count v)
  in
  Alcotest.(check bool) "PLDel(ICDS) planar" true planar;
  if per_edge > max_candidates_per_edge then
    Alcotest.failf "%.2f candidate pairs per edge over %d edges (bound %.0f)"
      per_edge (V.edge_count v) max_candidates_per_edge

let suites =
  [
    ( "planarity.hostile",
      [
        Alcotest.test_case "empty graphs" `Quick test_empty;
        Alcotest.test_case "single edge" `Quick test_single_edge;
        Alcotest.test_case "shared endpoints" `Quick test_shared_endpoints;
        Alcotest.test_case "collinear overlap" `Quick test_collinear_overlap;
        Alcotest.test_case "T-junctions" `Quick test_t_junctions;
        Alcotest.test_case "zero-length edges" `Quick test_zero_length;
        Alcotest.test_case "long and short edges" `Quick test_long_and_short;
        Alcotest.test_case "far from the origin" `Quick test_far_from_origin;
      ] );
    ( "planarity.oracle",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [ prop_random_deployments; prop_hostile ] );
    ( "planarity.scaling",
      [
        Alcotest.test_case "candidates per edge at 20k" `Quick
          test_candidates_bound;
      ]
    );
  ]
