(* Delaunay triangulation: exactness of the empty-circumcircle
   property, combinatorial counts, degeneracies. *)

module P = Geometry.Point
module DT = Delaunay.Triangulation

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let p = P.make

let test_single_triangle () =
  let pts = [| p 0. 0.; p 1. 0.; p 0. 1. |] in
  let t = DT.triangulate pts in
  checki "one triangle" 1 (List.length (DT.triangles t));
  checki "three edges" 3 (List.length (DT.edges t));
  check "has triangle any order" true (DT.has_triangle t 2 0 1);
  Alcotest.(check (list int)) "hull" [ 0; 1; 2 ] (List.sort compare (DT.hull t))

let test_square_diagonal () =
  (* unit square plus center: 4 triangles around the center *)
  let pts = [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1.; p 0.5 0.5 |] in
  let t = DT.triangulate pts in
  checki "four triangles" 4 (List.length (DT.triangles t));
  check "all delaunay" true (DT.is_delaunay pts (DT.triangles t));
  checki "hull size" 4 (List.length (DT.hull t))

let test_cocircular_square () =
  (* a plain square: 4 cocircular points; either diagonal gives a
     valid Delaunay triangulation *)
  let pts = [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1. |] in
  let t = DT.triangulate pts in
  checki "two triangles" 2 (List.length (DT.triangles t));
  checki "five edges" 5 (List.length (DT.edges t))

let test_collinear_fallback () =
  let pts = [| p 3. 3.; p 0. 0.; p 1. 1.; p 2. 2. |] in
  let t = DT.triangulate pts in
  checki "no triangles" 0 (List.length (DT.triangles t));
  (* path along the line in sorted order *)
  Alcotest.(check (list (pair int int)))
    "path edges"
    [ (1, 2); (2, 3); (0, 3) ]
    (DT.edges t)

let test_two_points () =
  let t = DT.triangulate [| p 0. 0.; p 5. 5. |] in
  Alcotest.(check (list (pair int int))) "single edge" [ (0, 1) ] (DT.edges t)

let test_duplicate_rejected () =
  let raises pts =
    try
      ignore (DT.triangulate pts);
      false
    with Invalid_argument _ -> true
  in
  check "duplicate raises" true (raises [| p 0. 0.; p 1. 1.; p 0. 0. |]);
  (* -0. and 0. are the same coordinate *)
  check "signed zero raises" true (raises [| p 0. 0.; p 1. 1.; p (-0.) 0. |])

let test_point_on_hull_edge () =
  (* inserting a point exactly on an existing hull edge *)
  let pts = [| p 0. 0.; p 4. 0.; p 2. 3.; p 2. 0. |] in
  let t = DT.triangulate pts in
  check "delaunay" true (DT.is_delaunay pts (DT.triangles t));
  checki "two triangles" 2 (List.length (DT.triangles t))

let test_point_outside_hull_collinear () =
  (* new point collinear with a hull edge, beyond it *)
  let pts = [| p 0. 0.; p 2. 0.; p 1. 2.; p 4. 0. |] in
  let t = DT.triangulate pts in
  check "delaunay" true (DT.is_delaunay pts (DT.triangles t));
  check "covers all points" true
    (List.for_all
       (fun v -> List.exists (fun (a, b) -> a = v || b = v) (DT.edges t))
       [ 0; 1; 2; 3 ])

let euler_holds n t =
  (* for a triangulation of a point set with h hull points (general
     position): T = 2n - 2 - h, E = 3n - 3 - h *)
  let h = List.length (DT.hull t) in
  List.length (DT.triangles t) = (2 * n) - 2 - h
  && List.length (DT.edges t) = (3 * n) - 3 - h

let test_random_delaunay () =
  let rng = Wireless.Rand.create 12345L in
  for _ = 1 to 25 do
    let n = 3 + Wireless.Rand.int rng 120 in
    let pts =
      Array.init n (fun _ ->
          p (Wireless.Rand.float rng 100.) (Wireless.Rand.float rng 100.))
    in
    let t = DT.triangulate pts in
    check "empty circumcircle" true (DT.is_delaunay pts (DT.triangles t));
    check "euler counts" true (euler_holds n t)
  done

let test_random_insertion_order_invariance () =
  (* the Delaunay triangulation is unique (no 4 cocircular points
     w.p. 1), so shuffling the input gives the same edge set *)
  let rng = Wireless.Rand.create 99L in
  let n = 60 in
  let pts =
    Array.init n (fun _ ->
        p (Wireless.Rand.float rng 50.) (Wireless.Rand.float rng 50.))
  in
  let t1 = DT.triangulate pts in
  let perm = Array.init n (fun i -> i) in
  Wireless.Rand.shuffle rng perm;
  let pts2 = Array.map (fun i -> pts.(i)) perm in
  let t2 = DT.triangulate pts2 in
  let back = Array.make n 0 in
  Array.iteri (fun new_i old_i -> back.(new_i) <- old_i) perm;
  let remapped =
    List.sort compare
      (List.map
         (fun (u, v) ->
           let a = back.(u) and b = back.(v) in
           (min a b, max a b))
         (DT.edges t2))
  in
  Alcotest.(check (list (pair int int)))
    "same edges under permutation" (DT.edges t1) remapped

let test_hull_matches_convex_hull () =
  let rng = Wireless.Rand.create 17L in
  for _ = 1 to 10 do
    let n = 10 + Wireless.Rand.int rng 50 in
    let pts =
      Array.init n (fun _ ->
          p (Wireless.Rand.float rng 10.) (Wireless.Rand.float rng 10.))
    in
    let t = DT.triangulate pts in
    let dt_hull =
      List.sort P.compare (List.map (fun i -> pts.(i)) (DT.hull t))
    in
    let geo_hull =
      List.sort P.compare (Geometry.Hull.convex_hull (Array.to_list pts))
    in
    check "hull = convex hull" true (dt_hull = geo_hull)
  done

let test_triangles_of_vertex () =
  let pts = [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1.; p 0.5 0.5 |] in
  let t = DT.triangulate pts in
  checki "center in all four" 4 (List.length (DT.triangles_of_vertex t 4));
  checki "corner in two" 2 (List.length (DT.triangles_of_vertex t 0))

let test_gabriel_subset_of_delaunay () =
  (* Gabriel edges (empty diametral disk over ALL points) are always
     Delaunay edges *)
  let rng = Wireless.Rand.create 31L in
  for _ = 1 to 10 do
    let n = 40 in
    let pts =
      Array.init n (fun _ ->
          p (Wireless.Rand.float rng 100.) (Wireless.Rand.float rng 100.))
    in
    let t = DT.triangulate pts in
    let del_edges = DT.edges t in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let gabriel =
          Array.for_all
            (fun w ->
              P.equal w pts.(u) || P.equal w pts.(v)
              || not (Geometry.Circle.in_diametral pts.(u) pts.(v) w))
            pts
        in
        if gabriel then
          check "gabriel edge is delaunay" true (List.mem (u, v) del_edges)
      done
    done
  done

(* ---------------- differential oracle ---------------- *)

(* The persistent-set Bowyer–Watson the flat triangle store replaced:
   the same ghost triangles, cavity rule (every triangle whose
   circumdisk strictly contains p) and boundary rule (a cavity edge
   whose reverse is not in the cavity), but the mesh is a [Set]
   rebuilt by [filter]/[diff]/[add] around a Hashtbl of cavity edges
   on every insertion.  Its triangles, edges and hull must equal the
   flat store's on every input, degenerate ones included. *)
module Oracle = struct
  module Pred = Geometry.Predicates

  let ghost = -1

  module Triangles = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end)

  type t = {
    pts : P.t array;
    mutable alive : Triangles.t;
    path : (int * int) list option;
  }

  let normalize (a, b, c) =
    if c = ghost then (a, b, c)
    else if a = ghost then (b, c, a)
    else if b = ghost then (c, a, b)
    else if a <= b && a <= c then (a, b, c)
    else if b <= a && b <= c then (b, c, a)
    else (c, a, b)

  let in_circumdisk pts (a, b, c) p =
    if c = ghost then
      match Pred.orient2d pts.(a) pts.(b) p with
      | Pred.Ccw -> true
      | Pred.Cw -> false
      | Pred.Collinear -> P.dot (P.sub pts.(a) p) (P.sub pts.(b) p) < 0.
    else Pred.incircle pts.(a) pts.(b) pts.(c) p

  let directed_edges (a, b, c) = [ (a, b); (b, c); (c, a) ]

  let insert t pi =
    let p = t.pts.(pi) in
    let bad = Triangles.filter (fun tri -> in_circumdisk t.pts tri p) t.alive in
    if Triangles.is_empty bad then invalid_arg "Triangulation: duplicate point";
    let edge_set = Hashtbl.create 32 in
    Triangles.iter
      (fun tri ->
        List.iter (fun e -> Hashtbl.replace edge_set e ()) (directed_edges tri))
      bad;
    let boundary =
      Hashtbl.fold
        (fun (u, v) () acc ->
          if Hashtbl.mem edge_set (v, u) then acc else (u, v) :: acc)
        edge_set []
    in
    t.alive <- Triangles.diff t.alive bad;
    List.iter
      (fun (u, v) -> t.alive <- Triangles.add (normalize (u, v, pi)) t.alive)
      boundary

  let triangulate pts =
    let n = Array.length pts in
    let seen = Hashtbl.create n in
    Array.iter
      (fun (p : P.t) ->
        if Hashtbl.mem seen (p.x, p.y) then
          invalid_arg "Triangulation: duplicate point";
        Hashtbl.add seen (p.x, p.y) ())
      pts;
    let rec third k =
      if k >= n then None
      else if
        k <> 0 && k <> 1
        && Pred.orient2d pts.(0) pts.(1) pts.(k) <> Pred.Collinear
      then Some k
      else third (k + 1)
    in
    match if n < 2 then None else third 0 with
    | None ->
      let order = Array.init n (fun i -> i) in
      Array.sort (fun i j -> P.compare pts.(i) pts.(j)) order;
      let path =
        List.init (max 0 (n - 1)) (fun i ->
            let u = order.(i) and v = order.(i + 1) in
            (min u v, max u v))
      in
      { pts; alive = Triangles.empty; path = Some path }
    | Some k ->
      let i, j, k =
        if Pred.orient2d pts.(0) pts.(1) pts.(k) = Pred.Ccw then (0, 1, k)
        else (0, k, 1)
      in
      let t =
        { pts; alive = Triangles.singleton (normalize (i, j, k)); path = None }
      in
      List.iter
        (fun (u, v) -> t.alive <- Triangles.add (v, u, ghost) t.alive)
        (directed_edges (i, j, k));
      for p = 0 to n - 1 do
        if p <> i && p <> j && p <> k then insert t p
      done;
      t

  let real t =
    List.filter (fun (_, _, c) -> c <> ghost) (Triangles.elements t.alive)

  let triangles t = real t

  let edges t =
    match t.path with
    | Some path -> path
    | None ->
      List.sort_uniq compare
        (List.concat_map
           (fun (a, b, c) ->
             List.map (fun (u, v) -> (min u v, max u v)) [ (a, b); (b, c); (c, a) ])
           (real t))

  let hull t =
    match t.path with
    | Some [] -> if Array.length t.pts = 1 then [ 0 ] else []
    | Some ((u, _) :: _ as path) -> u :: List.map snd path
    | None ->
      let next = Hashtbl.create 16 in
      Triangles.iter
        (fun (a, b, c) -> if c = ghost then Hashtbl.replace next a b)
        t.alive;
      let start = Hashtbl.fold (fun a _ acc -> min a acc) next max_int in
      if start = max_int then []
      else
        let rec chain v acc =
          let w = Hashtbl.find next v in
          if w = start then List.rev (v :: acc) else chain w (v :: acc)
        in
        List.rev (chain start [])

  let has_triangle t i j k =
    List.exists
      (fun tri -> Triangles.mem (normalize tri) t.alive)
      [ (i, j, k); (j, k, i); (k, i, j); (i, k, j); (k, j, i); (j, i, k) ]
end

let outcome f = try Ok (f ()) with e -> Error (Printexc.to_string e)

(* triangles, edges, hull and (on small inputs) every has_triangle
   query agree with the oracle, or both raise the same exception *)
let agrees pts =
  match (outcome (fun () -> DT.triangulate pts), outcome (fun () -> Oracle.triangulate pts)) with
  | Error a, Error b -> a = b
  | Ok t, Ok o ->
    let n = Array.length pts in
    let triples =
      if n > 9 then []
      else
        List.concat_map
          (fun i ->
            List.concat_map
              (fun j -> List.init n (fun k -> (i, j, k)))
              (List.init n Fun.id))
          (List.init n Fun.id)
    in
    DT.triangles t = Oracle.triangles o
    && DT.edges t = Oracle.edges o
    && outcome (fun () -> DT.hull t) = outcome (fun () -> Oracle.hull o)
    && List.for_all
         (fun (i, j, k) -> DT.has_triangle t i j k = Oracle.has_triangle o i j k)
         triples
  | _ -> false

let print_points pts =
  String.concat "; "
    (Array.to_list (Array.map (fun (q : P.t) -> Printf.sprintf "(%h, %h)" q.x q.y) pts))

let arb_random =
  QCheck.make ~print:print_points
    QCheck.Gen.(
      map Array.of_list
        (list_size (0 -- 60)
           (map2 p (float_range 0. 100.) (float_range 0. 100.))))

let prop_random =
  QCheck.Test.make ~name:"flat store = set oracle on random points" ~count:300
    arb_random agrees

(* Integer lattices in four coordinate frames: co-circular quads,
   collinear runs, points on hull edges, mm-scale spacing far from
   the origin.  [dups] keeps repeated lattice points, so the
   duplicate rejection is compared too. *)
let frame kind a =
  let a = float_of_int a in
  match kind with
  | 0 -> a
  | 1 -> 1e6 +. (a *. 1e-3)
  | 2 -> a *. a *. a
  | _ -> 0.1 +. (a *. 0.1)

let lattice_points (kind, dups, coords) =
  let coords = if dups then coords else List.sort_uniq compare coords in
  Array.of_list
    (List.map (fun (a, b) -> p (frame kind a) (frame kind b)) coords)

let prop_lattice =
  QCheck.Test.make ~name:"flat store = set oracle on lattices" ~count:600
    (QCheck.triple (QCheck.int_bound 3)
       (QCheck.frequency [ (9, QCheck.always false); (1, QCheck.always true) ])
       (QCheck.list_of_size QCheck.Gen.(0 -- 40)
          (QCheck.pair (QCheck.int_bound 6) (QCheck.int_bound 6))))
    (fun input -> agrees (lattice_points input))

(* collinear runs: points on one line, plus a few off it *)
let prop_collinear =
  QCheck.Test.make ~name:"flat store = set oracle on collinear runs" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 20) (int_bound 30))
        (list_of_size Gen.(0 -- 3) (pair (int_bound 30) (int_bound 30))))
    (fun (on_line, off) ->
      let on_line = List.sort_uniq compare on_line in
      let off = List.sort_uniq compare off in
      let pts =
        List.map (fun x -> p (float_of_int x) (float_of_int ((2 * x) + 1))) on_line
        @ List.filter_map
            (fun (x, y) ->
              if y = (2 * x) + 1 || List.mem x on_line then None
              else Some (p (float_of_int x) (float_of_int y)))
            off
      in
      agrees (Array.of_list pts))

let suites =
  [
    ( "delaunay",
      [
        Alcotest.test_case "single triangle" `Quick test_single_triangle;
        Alcotest.test_case "square with center" `Quick test_square_diagonal;
        Alcotest.test_case "cocircular square" `Quick test_cocircular_square;
        Alcotest.test_case "collinear fallback" `Quick test_collinear_fallback;
        Alcotest.test_case "two points" `Quick test_two_points;
        Alcotest.test_case "duplicates rejected" `Quick test_duplicate_rejected;
        Alcotest.test_case "point on hull edge" `Quick test_point_on_hull_edge;
        Alcotest.test_case "collinear outside hull" `Quick
          test_point_outside_hull_collinear;
        Alcotest.test_case "random: empty circumcircle + euler" `Quick
          test_random_delaunay;
        Alcotest.test_case "insertion order invariance" `Quick
          test_random_insertion_order_invariance;
        Alcotest.test_case "hull = convex hull" `Quick
          test_hull_matches_convex_hull;
        Alcotest.test_case "triangles of vertex" `Quick
          test_triangles_of_vertex;
        Alcotest.test_case "gabriel ⊆ delaunay" `Quick
          test_gabriel_subset_of_delaunay;
      ] );
    ( "delaunay.oracle",
      List.map
        (fun t -> QCheck_alcotest.to_alcotest t)
        [ prop_random; prop_lattice; prop_collinear ] );
  ]
