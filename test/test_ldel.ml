(* Localized Delaunay (Algorithms 2-3): local triangle computation,
   acceptance, planarization. *)

module G = Netgraph.Graph
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_instance seed n side radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side ~radius ~max_attempts:2000
  in
  (pts, Wireless.Udg.build pts ~radius)

let view pts g u =
  Core.Ldel.local_triangles_of_neighborhood ~me:u ~me_pos:pts.(u)
    ~nbrs:(List.map (fun v -> (v, pts.(v))) (G.neighbors g u))

let test_local_triangles_triangle () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 0.5 0.8 |] in
  let g = Wireless.Udg.build pts ~radius:1.5 in
  check "single local triangle" true (view pts g 0 = [ (0, 1, 2) ])

(* Algorithm 2 acceptance from the nodes' own views: a triangle is
   accepted exactly when all three corners find it locally and its
   links fit *)
let test_local_triangles_from_neighborhood_equivalence () =
  let pts, udg = random_instance 100L 60 200. 50. in
  let views = Array.init 60 (view pts udg) in
  let want =
    List.sort_uniq compare
      (List.filter
         (fun ((a, b, c) as t) ->
           List.mem t views.(a) && List.mem t views.(b) && List.mem t views.(c)
           && Core.Ldel.triangle_fits pts ~radius:50. t)
         (List.concat (Array.to_list views)))
  in
  check "accepted = unanimous local views" true
    (want = (Core.Ldel.build udg pts ~radius:50.).Core.Ldel.triangles);
  check "some triangles" true (want <> [])

let test_triangle_fits () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 0. 1. |] in
  check "fits" true (Core.Ldel.triangle_fits pts ~radius:1.5 (0, 1, 2));
  check "hypotenuse too long" false
    (Core.Ldel.triangle_fits pts ~radius:1.2 (0, 1, 2))

let test_triangles_intersect_cases () =
  let pts =
    [|
      P.make 0. 0.; (* 0 *)
      P.make 4. 0.; (* 1 *)
      P.make 2. 3.; (* 2 *)
      P.make 2. 1.; (* 3: inside triangle 0-1-2 *)
      P.make 6. 0.; (* 4 *)
      P.make 5. 2.; (* 5 *)
      P.make 0. 5.; (* 6 *)
      P.make 1. 4.; (* 7 *)
      P.make (-2.) 4.; (* 8 *)
    |]
  in
  let ti = Core.Ldel.triangles_intersect pts in
  (* containment without edge crossings: tiny triangle inside big *)
  let tiny = (3, 3, 3) in
  ignore tiny;
  check "vertex inside" true (ti (0, 1, 2) (3, 4, 5));
  (* sharing an edge, disjoint interiors *)
  check "shared edge ok" false (ti (0, 1, 2) (1, 2, 5));
  (* sharing a vertex only *)
  check "shared vertex ok" false (ti (0, 1, 2) (2, 6, 7));
  (* disjoint *)
  check "disjoint" false (ti (0, 1, 3) (6, 7, 8))

let test_circumcircle_contains () =
  let pts = [| P.make 0. 0.; P.make 2. 0.; P.make 0. 2.; P.make 1. 1.; P.make 9. 9. |] in
  check "inside" true (Core.Ldel.circumcircle_contains pts (0, 1, 2) 3);
  check "outside" false (Core.Ldel.circumcircle_contains pts (0, 1, 2) 4);
  check "corner excluded" false (Core.Ldel.circumcircle_contains pts (0, 1, 2) 0)

(* The key theorems from Li et al. that the paper relies on, checked
   empirically on random instances: *)

let test_ldel_contains_gabriel () =
  let pts, udg = random_instance 101L 80 200. 50. in
  let l = Core.Ldel.build udg pts ~radius:50. in
  let gg = Wireless.Proximity.gabriel_graph udg pts in
  check "GG ⊆ LDel1" true (G.is_subgraph gg l.Core.Ldel.ldel1);
  check "GG ⊆ PLDel" true (G.is_subgraph gg l.Core.Ldel.planar)

let test_ldel_contains_udel () =
  (* unit Delaunay triangles are 1-localized Delaunay triangles, so
     UDel ⊆ LDel1 *)
  let pts, udg = random_instance 102L 80 200. 50. in
  let l = Core.Ldel.build udg pts ~radius:50. in
  let udel = Wireless.Proximity.udel pts ~radius:50. in
  check "UDel ⊆ LDel1" true (G.is_subgraph udel l.Core.Ldel.ldel1)

let test_pldel_planar_and_connected () =
  for seed = 110 to 119 do
    let pts, udg = random_instance (Int64.of_int seed) 90 200. 50. in
    let l = Core.Ldel.build udg pts ~radius:50. in
    check "planar" true (Netgraph.Planarity.is_planar l.Core.Ldel.planar pts);
    check "connected" true
      (Netgraph.Components.is_connected l.Core.Ldel.planar);
    check "planar ⊆ ldel1" true
      (G.is_subgraph l.Core.Ldel.planar l.Core.Ldel.ldel1);
    check "ldel1 within UDG distance" true
      (G.fold_edges l.Core.Ldel.ldel1
         (fun acc u v -> acc && P.dist pts.(u) pts.(v) <= 50.)
         true)
  done

let test_ldel1_thickness_two_edge_bound () =
  (* LDel1 has thickness 2, hence at most 2(3n - 6) edges *)
  let pts, udg = random_instance 120L 100 200. 60. in
  let l = Core.Ldel.build udg pts ~radius:60. in
  let n = Array.length pts in
  check "edge bound" true
    (G.edge_count l.Core.Ldel.ldel1 <= 2 * ((3 * n) - 6))

let test_kept_subset_accepted () =
  let pts, udg = random_instance 121L 80 200. 50. in
  let l = Core.Ldel.build udg pts ~radius:50. in
  let module TS = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  let acc = TS.of_list l.Core.Ldel.triangles in
  check "kept ⊆ accepted" true
    (List.for_all (fun t -> TS.mem t acc) l.Core.Ldel.kept_triangles)

let test_ldel_on_icds () =
  (* the pipeline case: LDel over the induced backbone stays planar,
     connected on backbone nodes, and only touches backbone nodes *)
  for seed = 130 to 134 do
    let pts, udg = random_instance (Int64.of_int seed) 90 200. 50. in
    let cds = Core.Cds.of_udg udg in
    let l = Core.Ldel.build cds.Core.Cds.icds pts ~radius:50. in
    check "planar" true (Netgraph.Planarity.is_planar l.Core.Ldel.planar pts);
    check "backbone connected" true
      (Netgraph.Components.connected_within l.Core.Ldel.planar
         (Core.Cds.backbone_nodes cds));
    G.iter_edges l.Core.Ldel.planar (fun u v ->
        check "backbone only" true
          (cds.Core.Cds.backbone.(u) && cds.Core.Cds.backbone.(v)))
  done

let test_degenerate_inputs () =
  (* two nodes: single Gabriel edge, no triangles *)
  let pts = [| P.make 0. 0.; P.make 1. 0. |] in
  let udg = Wireless.Udg.build pts ~radius:2. in
  let l = Core.Ldel.build udg pts ~radius:2. in
  checki "no triangles" 0 (List.length l.Core.Ldel.triangles);
  check "edge kept" true (G.has_edge l.Core.Ldel.planar 0 1);
  (* collinear nodes: consecutive edges are Gabriel, no triangles *)
  let pts = Array.init 4 (fun i -> P.make (float_of_int i) 0.) in
  let udg = Wireless.Udg.build pts ~radius:1.5 in
  let l = Core.Ldel.build udg pts ~radius:1.5 in
  checki "no triangles" 0 (List.length l.Core.Ldel.triangles);
  check "path kept" true
    (G.has_edge l.Core.Ldel.planar 0 1
    && G.has_edge l.Core.Ldel.planar 1 2
    && G.has_edge l.Core.Ldel.planar 2 3)

let test_dense_equals_udel_plus () =
  (* when the radius covers the whole deployment, every node sees
     everything: LDel1 = Del (all triangles survive) *)
  let rng = Wireless.Rand.create 140L in
  let pts =
    Array.init 20 (fun _ ->
        P.make (Wireless.Rand.float rng 10.) (Wireless.Rand.float rng 10.))
  in
  let radius = 100. in
  let udg = Wireless.Udg.build pts ~radius in
  let l = Core.Ldel.build udg pts ~radius in
  let del = Delaunay.Triangulation.triangulate pts in
  let del_edges = Delaunay.Triangulation.edges del in
  check "LDel1 = Del when everyone sees everyone" true
    (List.sort compare (G.edges l.Core.Ldel.ldel1) = del_edges);
  check "planarization removes nothing" true
    (List.length l.Core.Ldel.kept_triangles
    = List.length l.Core.Ldel.triangles)

(* ---------------- differential oracle ---------------- *)

(* Algorithm 3 as it was before the flat kernel: corner lists,
   [Segment.t] records and closures per pair, over all O(T^2) pairs
   of triangles.  [Ldel.planarize], [Ldel.build_csr] and the tuple
   wrappers must agree with it exactly. *)
module Oracle = struct
  module Pred = Geometry.Predicates

  let triangles_intersect points (a1, b1, c1) (a2, b2, c2) =
    let t1 = [ a1; b1; c1 ] and t2 = [ a2; b2; c2 ] in
    let edge_of = function
      | [ x; y; z ] -> [ (x, y); (y, z); (z, x) ]
      | _ -> assert false
    in
    let seg (u, v) = Geometry.Segment.make points.(u) points.(v) in
    List.exists
      (fun e1 ->
        List.exists
          (fun e2 -> Geometry.Segment.properly_intersect (seg e1) (seg e2))
          (edge_of t2))
      (edge_of t1)
    ||
    let strictly_inside (x, y, z) v =
      let inside_ccw a b c p =
        Pred.orient2d points.(a) points.(b) p = Pred.Ccw
        && Pred.orient2d points.(b) points.(c) p = Pred.Ccw
        && Pred.orient2d points.(c) points.(a) p = Pred.Ccw
      in
      match Pred.orient2d points.(x) points.(y) points.(z) with
      | Pred.Ccw -> inside_ccw x y z points.(v)
      | Pred.Cw -> inside_ccw x z y points.(v)
      | Pred.Collinear -> false
    in
    List.exists
      (fun v -> (not (List.mem v t1)) && strictly_inside (a1, b1, c1) v)
      t2
    || List.exists
         (fun v -> (not (List.mem v t2)) && strictly_inside (a2, b2, c2) v)
         t1

  let circumcircle_contains points (a, b, c) v =
    v <> a && v <> b && v <> c
    && Pred.incircle points.(a) points.(b) points.(c) points.(v)

  let mutually_visible g (a1, b1, c1) (a2, b2, c2) =
    List.exists
      (fun x -> List.exists (fun y -> x = y || G.has_edge g x y) [ a2; b2; c2 ])
      [ a1; b1; c1 ]

  let planarize g points triangles =
    let tris = Array.of_list triangles in
    let m = Array.length tris in
    let removed = Array.make m false in
    let box (a, b, c) = Geometry.Bbox.of_points [ points.(a); points.(b); points.(c) ] in
    let overlap (b1 : Geometry.Bbox.t) (b2 : Geometry.Bbox.t) =
      b1.xmin <= b2.xmax && b2.xmin <= b1.xmax && b1.ymin <= b2.ymax
      && b2.ymin <= b1.ymax
    in
    for i = 0 to m - 1 do
      for j = i + 1 to m - 1 do
        if
          overlap (box tris.(i)) (box tris.(j))
          && mutually_visible g tris.(i) tris.(j)
          && triangles_intersect points tris.(i) tris.(j)
        then begin
          let a2, b2, c2 = tris.(j) and a1, b1, c1 = tris.(i) in
          if List.exists (circumcircle_contains points tris.(i)) [ a2; b2; c2 ]
          then removed.(i) <- true;
          if List.exists (circumcircle_contains points tris.(j)) [ a1; b1; c1 ]
          then removed.(j) <- true
        end
      done
    done;
    List.filteri (fun i _ -> not removed.(i)) triangles
end

let tri_list = Alcotest.(check (list (triple int int int)))

(* the kernel, the tuple wrappers and the serial planarize agree with
   the oracle on [tris] under visibility graph [g] *)
let agrees g points tris =
  let wrappers_agree t1 t2 =
    let a2, b2, c2 = t2 in
    Core.Ldel.triangles_intersect points t1 t2
    = Oracle.triangles_intersect points t1 t2
    && List.for_all
         (fun v ->
           Core.Ldel.circumcircle_contains points t1 v
           = Oracle.circumcircle_contains points t1 v)
         [ a2; b2; c2 ]
  in
  List.for_all (fun t1 -> List.for_all (wrappers_agree t1) tris) tris
  && Core.Ldel.planarize g points tris = Oracle.planarize g points tris

let gen_deployment =
  QCheck.Gen.(
    map3
      (fun seed n radius -> (seed, n, radius))
      (int_bound 1_000_000) (int_range 10 90) (float_range 30. 70.))

let print_deployment (seed, n, radius) =
  Printf.sprintf "seed=%d n=%d radius=%g" seed n radius

let deployment (seed, n, radius) =
  let rng = Wireless.Rand.create (Int64.of_int (seed + 1)) in
  let points = Wireless.Deploy.uniform rng ~n ~side:200. in
  (points, Wireless.Udg.build points ~radius)

(* LDel on the UDG and on the induced backbone: the accepted
   triangles go through both Algorithm 3s *)
let prop_deployments =
  QCheck.Test.make ~name:"Algorithm 3 = oracle on deployments" ~count:60
    (QCheck.make ~print:print_deployment gen_deployment)
    (fun ((_, _, radius) as input) ->
      let points, udg = deployment input in
      let icds = (Core.Cds.of_udg udg).Core.Cds.icds in
      List.for_all
        (fun g ->
          let l = Core.Ldel.build g points ~radius in
          l.Core.Ldel.kept_triangles
          = Oracle.planarize g points l.Core.Ldel.triangles
          && agrees g points l.Core.Ldel.triangles)
        [ udg; icds ])

(* Small triangles on a lattice in four coordinate frames: pairs
   sharing an edge or only a vertex, T-junctions (a corner on another
   triangle's edge), collinear corners, co-circular quads and mm-scale
   triangles 10^6 from the origin.  Each triangle is a base point and
   two offsets of at most [reach] steps, and visibility joins every
   pair of points within [reach] steps.  Up to 80 triangles spread
   over a 25x25 lattice occupy many grid cells, so a grid that missed
   an overlapping pair would show. *)
let frame kind a =
  let a = float_of_int a in
  match kind with
  | 0 -> a
  | 1 -> 1e6 +. (a *. 1e-3)
  | 2 -> a *. a *. a
  | _ -> 0.1 +. (a *. 0.1)

let arb_hostile =
  QCheck.(
    triple (int_bound 3) (int_range 1 4)
      (list_of_size Gen.(1 -- 80)
         (pair
            (pair (int_bound 24) (int_bound 24))
            (quad (int_range (-4) 4) (int_range (-4) 4) (int_range (-4) 4)
               (int_range (-4) 4)))))

let hostile_input (kind, reach, specs) =
  let clamp d = max (-reach) (min reach d) in
  let corners =
    List.map
      (fun ((x, y), (dx1, dy1, dx2, dy2)) ->
        ((x, y), (x + clamp dx1, y + clamp dy1), (x + clamp dx2, y + clamp dy2)))
      specs
  in
  let lattice =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map (fun (a, b, c) -> [ a; b; c ]) corners))
  in
  let id q =
    let rec find i = if lattice.(i) = q then i else find (i + 1) in
    find 0
  in
  let points =
    Array.map (fun (a, b) -> P.make (frame kind a) (frame kind b)) lattice
  in
  let n = Array.length points in
  let g = G.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let (ax, ay), (bx, by) = (lattice.(u), lattice.(v)) in
      if max (abs (ax - bx)) (abs (ay - by)) <= reach then G.add_edge g u v
    done
  done;
  let tris =
    List.filter_map
      (fun (a, b, c) ->
        let a = id a and b = id b and c = id c in
        if a <> b && b <> c && a <> c then Some (a, b, c) else None)
      corners
  in
  (g, points, tris)

let prop_hostile =
  QCheck.Test.make ~name:"Algorithm 3 = oracle on lattices" ~count:250
    arb_hostile (fun input ->
      let g, points, tris = hostile_input input in
      agrees g points tris)

(* [build_csr] at jobs 1 and 2 and at several tilings reproduces the
   serial build, whose kept list is the oracle's *)
let prop_build_csr =
  QCheck.Test.make ~name:"build_csr = build at any jobs and tiling" ~count:15
    (QCheck.make ~print:print_deployment gen_deployment)
    (fun ((_, _, radius) as input) ->
      let points, udg = deployment input in
      let want = Core.Ldel.build udg points ~radius in
      let csr = Netgraph.Csr.of_graph udg in
      let n = Array.length points in
      let tilings =
        None
        :: List.map
             (fun k ->
               Some
                 (Array.init k (fun t ->
                      Array.of_list
                        (List.filter (fun u -> u mod k = t) (List.init n Fun.id)))))
             [ 1; 3; 7 ]
      in
      want.Core.Ldel.kept_triangles
      = Oracle.planarize udg points want.Core.Ldel.triangles
      && List.for_all
           (fun jobs ->
             let run pool =
               List.for_all
                 (fun owners ->
                   Core.Ldel.build_csr ?pool ?owners csr points ~radius
                   = {
                       Core.Ldel.p_gabriel = want.Core.Ldel.gabriel_edges;
                       p_triangles = want.Core.Ldel.triangles;
                       p_kept = want.Core.Ldel.kept_triangles;
                     })
                 tilings
             in
             if jobs = 1 then run None
             else Netgraph.Pool.with_pool ~jobs (fun p -> run (Some p)))
           [ 1; 2 ])

(* ---------------- allocation gate ---------------- *)

(* Minor words [Ldel.build_csr] allocates per accepted triangle, on
   the induced backbone of one fixed uniform 5,000-node deployment
   (side 707, radius 20: the density of the benchmark's build).  The
   flat kernels measure 785 words per triangle here (3,486
   triangles), so the bound leaves 27% headroom; the tuple-list
   Algorithm 3 over a persistent-set triangulation allocated about
   12,850.  Most of what is left is each node's local triangle list
   and the output lists. *)
let max_words_per_triangle = 1000.

let test_alloc_gate () =
  let rng = Wireless.Rand.create 1L in
  let points = Wireless.Deploy.uniform rng ~n:5_000 ~side:707. in
  let snap = Core.Shard.pipeline points ~radius:20. in
  let icds = snap.Core.Shard.icds and owners = snap.Core.Shard.owners in
  let before = Gc.minor_words () in
  let parts = Core.Ldel.build_csr ~owners icds points ~radius:20. in
  let words = Gc.minor_words () -. before in
  let tris = List.length parts.Core.Ldel.p_triangles in
  checki "the fixed instance's triangles" tris (List.length snap.Core.Shard.ldel.Core.Ldel.p_triangles);
  let per = words /. float_of_int tris in
  if per > max_words_per_triangle then
    Alcotest.failf "%.0f minor words per accepted triangle (%d triangles; bound %.0f)"
      per tris max_words_per_triangle

let suites =
  [
    ( "core.ldel",
      [
        Alcotest.test_case "local triangles (triangle)" `Quick
          test_local_triangles_triangle;
        Alcotest.test_case "neighborhood view equivalence" `Quick
          test_local_triangles_from_neighborhood_equivalence;
        Alcotest.test_case "triangle fits" `Quick test_triangle_fits;
        Alcotest.test_case "intersection cases" `Quick
          test_triangles_intersect_cases;
        Alcotest.test_case "circumcircle contains" `Quick
          test_circumcircle_contains;
        Alcotest.test_case "GG ⊆ LDel" `Quick test_ldel_contains_gabriel;
        Alcotest.test_case "UDel ⊆ LDel1" `Quick test_ldel_contains_udel;
        Alcotest.test_case "PLDel planar + connected" `Quick
          test_pldel_planar_and_connected;
        Alcotest.test_case "thickness-2 edge bound" `Quick
          test_ldel1_thickness_two_edge_bound;
        Alcotest.test_case "kept ⊆ accepted" `Quick test_kept_subset_accepted;
        Alcotest.test_case "LDel on ICDS" `Quick test_ldel_on_icds;
        Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
        Alcotest.test_case "full visibility = Delaunay" `Quick
          test_dense_equals_udel_plus;
      ] );
    ( "core.ldel.oracle",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [ prop_deployments; prop_hostile; prop_build_csr ] );
    ( "core.ldel.alloc",
      [
        Alcotest.test_case "minor words per accepted triangle" `Quick
          test_alloc_gate;
      ] );
  ]
