module G = Netgraph.Graph
module P = Geometry.Point
module Pred = Geometry.Predicates

type t = {
  ldel1 : G.t;
  planar : G.t;
  gabriel_edges : (int * int) list;
  triangles : (int * int * int) list;
  kept_triangles : (int * int * int) list;
}

(* The three ids in ascending order: [List.sort compare] on a triple,
   without the list. *)
let norm3 a b c =
  if a <= b then
    if b <= c then (a, b, c) else if a <= c then (a, c, b) else (c, a, b)
  else if a <= c then (b, a, c)
  else if b <= c then (b, c, a)
  else (c, b, a)

let cmp_tri (a1, b1, c1) (a2, b2, c2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare c1 c2

let cmp_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

(* What one node computes in Algorithm 2 from purely local data: the
   Delaunay triangulation of itself ([ids.(0)], at [pos.(0)]) plus its
   1-hop neighbors, filtered to the triangles it participates in.
   Both the centralized builders and the distributed protocol call
   this with the same inputs, which is what makes their outputs
   identical. *)
let local_triangles ids pos =
  if Array.length ids < 3 then []
  else
    List.filter_map
      (fun (a, b, c) ->
        if a = 0 || b = 0 || c = 0 then Some (norm3 ids.(a) ids.(b) ids.(c))
        else None)
      (Delaunay.Triangulation.triangles (Delaunay.Triangulation.triangulate pos))

let local_triangles_of_neighborhood ~me ~me_pos ~nbrs =
  let locals = Array.of_list ((me, me_pos) :: nbrs) in
  local_triangles (Array.map fst locals) (Array.map snd locals)

let fits points ~radius a b c =
  P.dist points.(a) points.(b) <= radius
  && P.dist points.(b) points.(c) <= radius
  && P.dist points.(a) points.(c) <= radius

let triangle_fits points ~radius (a, b, c) = fits points ~radius a b c

(* ---- Algorithm 3: one flat pair kernel ---------------------------- *)

(* The pair test below calls the exact predicates on corner ids
   directly: no triangle, segment or corner list is built per pair. *)

let opposite o1 o2 =
  match (o1, o2) with
  | Pred.Ccw, Pred.Cw | Pred.Cw, Pred.Ccw -> true
  | _ -> false

(* Edges [a b] and [c d] properly cross
   ([Geometry.Segment.properly_intersect] of their points).  A pair
   sharing an endpoint id is rejected before any predicate: orient2d
   with a repeated point is exactly [Collinear], so such a pair can
   never properly cross. *)
let edges_cross points a b c d =
  a <> c && a <> d && b <> c && b <> d
  &&
  let pa = points.(a) and pb = points.(b) in
  let pc = points.(c) and pd = points.(d) in
  opposite (Pred.orient2d pa pb pc) (Pred.orient2d pa pb pd)
  && opposite (Pred.orient2d pc pd pa) (Pred.orient2d pc pd pb)

let edge_crosses_triangle points a b x y z =
  edges_cross points a b x y || edges_cross points a b y z
  || edges_cross points a b z x

let left_of points a b p =
  match Pred.orient2d points.(a) points.(b) p with
  | Pred.Ccw -> true
  | Pred.Cw | Pred.Collinear -> false

(* [v] is not a corner of triangle [x y z], whose orientation is [o],
   and lies strictly inside it. *)
let strictly_inside points o x y z v =
  v <> x && v <> y && v <> z
  &&
  let p = points.(v) in
  match o with
  | Pred.Ccw -> left_of points x y p && left_of points y z p && left_of points z x p
  | Pred.Cw -> left_of points x z p && left_of points z y p && left_of points y x p
  | Pred.Collinear -> false

let intersect points o1 a1 b1 c1 o2 a2 b2 c2 =
  edge_crosses_triangle points a1 b1 a2 b2 c2
  || edge_crosses_triangle points b1 c1 a2 b2 c2
  || edge_crosses_triangle points c1 a1 a2 b2 c2
  || strictly_inside points o1 a1 b1 c1 a2
  || strictly_inside points o1 a1 b1 c1 b2
  || strictly_inside points o1 a1 b1 c1 c2
  || strictly_inside points o2 a2 b2 c2 a1
  || strictly_inside points o2 a2 b2 c2 b1
  || strictly_inside points o2 a2 b2 c2 c1

let circ_contains points a b c v =
  v <> a && v <> b && v <> c
  && Pred.incircle points.(a) points.(b) points.(c) points.(v)

(* the circumcircle of [a b c] holds a corner of [x y z] *)
let circ_holds_corner points a b c x y z =
  circ_contains points a b c x || circ_contains points a b c y
  || circ_contains points a b c z

let orientation points a b c = Pred.orient2d points.(a) points.(b) points.(c)

let triangles_intersect points (a1, b1, c1) (a2, b2, c2) =
  intersect points
    (orientation points a1 b1 c1)
    a1 b1 c1
    (orientation points a2 b2 c2)
    a2 b2 c2

let circumcircle_contains points (a, b, c) v = circ_contains points a b c v

(* A triangle pair can only be compared by nodes that hear about both:
   in Algorithm 3 a node gathers the triangles of its 1-hop neighbors,
   so corner visibility is required.  This mirrors exactly what the
   distributed protocol can decide. *)
let sees visible x a b c =
  x = a || x = b || x = c || visible x a || visible x b || visible x c

let mutually_visible visible a1 b1 c1 a2 b2 c2 =
  sees visible a1 a2 b2 c2 || sees visible b1 a2 b2 c2
  || sees visible c1 a2 b2 c2

(* Algorithm 3 over a flat triangle store: corners of triangle [i] in
   [tv.(3i .. 3i+2)], its orientation in [tor.(i)], its bounding box
   in four float arrays.  Triangles are bucketed by bbox min-corner in
   a [Geometry.Cellgrid] whose side covers the largest bbox side L:
   two overlapping bboxes have min-corners within L of each other in
   x and in y, so they sit in the same or adjacent cells, and scanning
   the 3x3 block around each triangle visits every overlapping pair.
   [visible x y] is the gathering graph's adjacency.  Pair decisions
   are pure predicates of the snapshot (they never read the removal
   flags), so processing pair (i, j) from i's worker and letting
   [removed] writes race on the identical value [true] loses nothing:
   the flags after the join equal the serial ones bit for bit. *)
let planarize_flat ?pool ~visible points tris =
  let m = Array.length tris in
  if m = 0 then []
  else begin
    let tv = Array.make (3 * m) 0 in
    let tor = Array.make m Pred.Collinear in
    let xmin = Array.make m 0. and xmax = Array.make m 0. in
    let ymin = Array.make m 0. and ymax = Array.make m 0. in
    let extent = ref 0. in
    Array.iteri
      (fun i (a, b, c) ->
        tv.(3 * i) <- a;
        tv.((3 * i) + 1) <- b;
        tv.((3 * i) + 2) <- c;
        tor.(i) <- orientation points a b c;
        let pa = points.(a) and pb = points.(b) and pc = points.(c) in
        xmin.(i) <- Float.min (Float.min pa.P.x pb.P.x) pc.P.x;
        xmax.(i) <- Float.max (Float.max pa.P.x pb.P.x) pc.P.x;
        ymin.(i) <- Float.min (Float.min pa.P.y pb.P.y) pc.P.y;
        ymax.(i) <- Float.max (Float.max pa.P.y pb.P.y) pc.P.y;
        extent :=
          Float.max !extent
            (Float.max (xmax.(i) -. xmin.(i)) (ymax.(i) -. ymin.(i))))
      tris;
    let corners = Array.init m (fun i -> P.make xmin.(i) ymin.(i)) in
    let grid =
      Geometry.Cellgrid.create
        ~cell_size:(Geometry.Cellgrid.covering_side ~extent:!extent corners)
        corners
    in
    let removed = Array.make m false in
    let process i =
      let a1 = tv.(3 * i) and b1 = tv.((3 * i) + 1) and c1 = tv.((3 * i) + 2) in
      Geometry.Cellgrid.iter_near grid i (fun j ->
          if
            j > i
            && xmin.(i) <= xmax.(j)
            && xmin.(j) <= xmax.(i)
            && ymin.(i) <= ymax.(j)
            && ymin.(j) <= ymax.(i)
          then begin
            let a2 = tv.(3 * j) and b2 = tv.((3 * j) + 1) in
            let c2 = tv.((3 * j) + 2) in
            if
              mutually_visible visible a1 b1 c1 a2 b2 c2
              && intersect points tor.(i) a1 b1 c1 tor.(j) a2 b2 c2
            then begin
              if circ_holds_corner points a1 b1 c1 a2 b2 c2 then
                removed.(i) <- true;
              if circ_holds_corner points a2 b2 c2 a1 b1 c1 then
                removed.(j) <- true
            end
          end)
    in
    (match pool with
    | Some p -> Netgraph.Pool.parallel_for p ~n:m (fun () -> process)
    | None ->
      for i = 0 to m - 1 do
        process i
      done);
    let kept = ref [] in
    for i = m - 1 downto 0 do
      if not removed.(i) then kept := tris.(i) :: !kept
    done;
    !kept
  end

let planarize g points triangles =
  planarize_flat ~visible:(G.has_edge g) points (Array.of_list triangles)

let graph_of n gabriel triangles =
  G.of_edges n
    (gabriel
    @ List.concat_map (fun (a, b, c) -> [ (a, b); (b, c); (a, c) ]) triangles)

(* ---- CSR-native, tile-sharded construction ------------------------- *)

type csr_parts = {
  p_gabriel : (int * int) list;
  p_triangles : (int * int * int) list;
  p_kept : (int * int * int) list;
}

let of_parts n { p_gabriel; p_triangles; p_kept } =
  {
    ldel1 = graph_of n p_gabriel p_triangles;
    planar = graph_of n p_gabriel p_kept;
    gabriel_edges = p_gabriel;
    triangles = p_triangles;
    kept_triangles = p_kept;
  }

(* Lexicographic order of triple [k] of a flat triple array against
   (a, b, c). *)
let cmp_at arr k a b c =
  let c0 = Int.compare arr.(3 * k) a in
  if c0 <> 0 then c0
  else
    let c1 = Int.compare arr.((3 * k) + 1) b in
    if c1 <> 0 then c1 else Int.compare arr.((3 * k) + 2) c

(* Binary search in a flat array of normalized triples, three ids
   each, sorted by [cmp_tri]. *)
let mem_tri arr a b c =
  let lo = ref 0 and hi = ref (Array.length arr / 3) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if cmp_at arr mid a b c < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length arr / 3 && cmp_at arr !lo a b c = 0

(* LDel¹/PLDel on a CSR snapshot.  Stage L1 computes every node's
   local Delaunay triangles from its row of [near] (its neighborhood,
   in ascending id order, so degenerate tie-breaks inside the
   triangulation are the same wherever the node runs — here or in
   [Protocol]); stage L2 accepts a triangle from its min-corner's tile
   exactly when the other two corners also found it and the links
   fit, so each triangle is decided exactly once; Gabriel edges are
   filtered from the owner side of each row of [csr].  Per-tile lists
   merge by sorting, so the outputs are the same for any tiling and
   job count. *)
let parts ?pool ?owners ~near csr points ~radius =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let owners =
    match owners with
    | Some o -> o
    | None -> [| Array.init n (fun u -> u) |]
  in
  let ntiles = Array.length owners in
  let for_tiles mk_body =
    match pool with
    | Some p -> Netgraph.Pool.parallel_for p ~n:ntiles mk_body
    | None ->
      let body = mk_body () in
      for t = 0 to ntiles - 1 do
        body t
      done
  in
  let stages () =
    (* L1: per-node local triangles, sorted for binary search, as flat
       arrays of three ids each *)
    let locals = Array.make n [||] in
    let l1 u =
      let k = 1 + C.degree near u in
      let ids = Array.make k u and pos = Array.make k points.(u) in
      let i = ref 1 in
      C.iter_neighbors near u (fun v ->
          ids.(!i) <- v;
          pos.(!i) <- points.(v);
          incr i);
      (* distinct ids (CSR rows are duplicate-free), so the triples are
         distinct and sorting needs no dedup *)
      let tris = Array.of_list (local_triangles ids pos) in
      Array.sort cmp_tri tris;
      let flat = Array.make (3 * Array.length tris) 0 in
      Array.iteri
        (fun k (a, b, c) ->
          flat.(3 * k) <- a;
          flat.((3 * k) + 1) <- b;
          flat.((3 * k) + 2) <- c)
        tris;
      locals.(u) <- flat
    in
    (match pool with
    | Some p -> Netgraph.Pool.parallel_for p ~n (fun () -> l1)
    | None ->
      for u = 0 to n - 1 do
        l1 u
      done);
    (* L2 + Gabriel: per-tile over owned nodes *)
    let gab_by_tile = Array.make ntiles [] in
    let acc_by_tile = Array.make ntiles [] in
    let mk_body () =
      let gab = ref [] and acc = ref [] in
      let at u =
        C.iter_neighbors csr u (fun v ->
            if v > u then begin
              (* [Proximity.is_gabriel_edge] off u's CSR row *)
              let blocked = ref false in
              C.iter_neighbors csr u (fun w ->
                  if
                    (not !blocked) && w <> v
                    && Geometry.Circle.in_diametral points.(u) points.(v)
                         points.(w)
                  then blocked := true);
              if not !blocked then gab := (u, v) :: !gab
            end);
        let mine = locals.(u) in
        for k = 0 to (Array.length mine / 3) - 1 do
          let a = mine.(3 * k) and b = mine.((3 * k) + 1) in
          let c = mine.((3 * k) + 2) in
          if
            a = u
            && fits points ~radius a b c
            && mem_tri locals.(b) a b c
            && mem_tri locals.(c) a b c
          then acc := (a, b, c) :: !acc
        done
      in
      fun t ->
        gab := [];
        acc := [];
        Array.iter at owners.(t);
        gab_by_tile.(t) <- !gab;
        acc_by_tile.(t) <- !acc
    in
    for_tiles mk_body;
    let concat_of by_tile = List.concat (Array.to_list by_tile) in
    let p_gabriel = List.sort cmp_pair (concat_of gab_by_tile) in
    let p_triangles = List.sort cmp_tri (concat_of acc_by_tile) in
    let p_kept =
      planarize_flat ?pool ~visible:(C.mem_edge csr) points
        (Array.of_list p_triangles)
    in
    { p_gabriel; p_triangles; p_kept }
  in
  (* the Obs registry is single-writer: silence it while workers run *)
  match pool with None -> stages () | Some _ -> Obs.quiesced stages

let build_csr ?pool ?owners csr points ~radius =
  parts ?pool ?owners ~near:csr csr points ~radius

let build g points ~radius =
  of_parts (G.node_count g)
    (build_csr (Netgraph.Csr.of_graph g) points ~radius)

let build_k g points ~radius ~k =
  if k < 1 then invalid_arg "Ldel.build_k: k < 1";
  let n = G.node_count g in
  let b = Netgraph.Builder.create n in
  for u = 0 to n - 1 do
    List.iter
      (fun v -> if v > u then Netgraph.Builder.add_edge b u v)
      (Wireless.Udg.neighborhood g u ~hops:k)
  done;
  of_parts n
    (parts ~near:(Netgraph.Builder.seal b) (Netgraph.Csr.of_graph g) points
       ~radius)
