module P = Geometry.Point
module Pred = Geometry.Predicates

(* Triangles are ordered triples (i, j, k), counterclockwise.  The
   ghost vertex is [ghost = -1] and is kept in the last slot, so a
   ghost triangle (a, b, ghost) records the directed hull edge a -> b
   with the mesh exterior to its left. *)
let ghost = -1

(* Bowyer–Watson work counters: one insertion per point after the
   seed; the cavity size (bad triangles excavated per insertion) is
   this kernel's analogue of edge flips. *)
let c_triangulations = Obs.counter "delaunay.triangulations"
let c_insertions = Obs.counter "delaunay.insertions"
let c_cavity = Obs.counter "delaunay.cavity_triangles"
let d_cavity = Obs.dist "delaunay.cavity_size"

(* explicit int comparators: triangle ids never go through polymorphic
   compare *)
let cmp_int_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let cmp_tri (a1, b1, c1) (a2, b2, c2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare c1 c2

(* The mesh is a flat triangle store: slot [s] holds the corners
   [tv.(3s)], [tv.(3s+1)], [tv.(3s+2)] of one triangle (rotated as
   [store] says) and [live.(s)] says whether it is still in the mesh.  The
   alive slots are the triangle set; the slot order carries no
   meaning.  An insertion overwrites its cavity's slots with the new
   triangles before appending, so in a consistent mesh (one new
   triangle per cavity triangle, plus two) every slot stays alive. *)
type t = {
  pts : P.t array;
  mutable tv : int array;
  mutable live : bool array;
  mutable slots : int;  (* slots in use: 0 .. slots - 1 *)
  collinear_path : (int * int) list option;
      (* Delaunay graph of degenerate (collinear / tiny) inputs *)
}

(* Per-triangulation scratch, reused by every insertion: the cavity's
   slots and its directed edges. *)
type scratch = {
  mutable bad : int array;
  mutable eu : int array;
  mutable ev : int array;
}

let point_count t = Array.length t.pts
let points t = t.pts

let grow a need fill =
  if need <= Array.length a then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let write t s a b c =
  t.tv.(3 * s) <- a;
  t.tv.((3 * s) + 1) <- b;
  t.tv.((3 * s) + 2) <- c;
  t.live.(s) <- true

(* The ccw triple (a, b, c) into slot [s], rotated so the smallest
   vertex comes first; cyclic order — hence orientation — is
   preserved.  Ghosts stay LAST instead (the rotation (a, b, ghost)
   keeps the directed hull edge a -> b). *)
let store t s a b c =
  if c = ghost then write t s a b c
  else if a = ghost then write t s b c a
  else if b = ghost then write t s c a b
  else if a <= b && a <= c then write t s a b c
  else if b <= a && b <= c then write t s b c a
  else write t s c a b

(* a fresh slot at the end of the store *)
let append t =
  let s = t.slots in
  t.tv <- grow t.tv (3 * (s + 1)) 0;
  t.live <- grow t.live (s + 1) false;
  t.slots <- s + 1;
  s

let in_circumdisk pts a b c (p : P.t) =
  if c = ghost then
    (* Ghost triangle over directed hull edge a -> b (exterior left):
       the limiting circumdisk is the open exterior half-plane plus
       the open segment a b. *)
    match Pred.orient2d pts.(a) pts.(b) p with
    | Pred.Ccw -> true
    | Pred.Cw -> false
    | Pred.Collinear ->
      (* strictly between a and b on the line *)
      P.dot (P.sub pts.(a) p) (P.sub pts.(b) p) < 0.
  else Pred.incircle pts.(a) pts.(b) pts.(c) p

(* directed edge u -> v among the cavity's [ne] edges *)
let cavity_has sc u v ne =
  let k = ref 0 in
  while !k < ne && not (sc.eu.(!k) = u && sc.ev.(!k) = v) do
    incr k
  done;
  !k < ne

(* Bowyer–Watson step.  The cavity is every alive triangle whose
   circumdisk strictly contains [p]; its boundary is every directed
   cavity edge whose reverse is not also a cavity edge; each boundary
   edge (u, v) yields the triangle (u, v, pi).  A directed edge
   belongs to one triangle of the mesh, so the cavity's edges are
   distinct, and these set rules make the mesh after the step a
   function of the mesh before it, whatever the slot order. *)
let insert t sc pi =
  Obs.incr c_insertions;
  let p = t.pts.(pi) in
  let nbad = ref 0 in
  for s = 0 to t.slots - 1 do
    if
      t.live.(s)
      && in_circumdisk t.pts t.tv.(3 * s) t.tv.((3 * s) + 1)
           t.tv.((3 * s) + 2) p
    then begin
      sc.bad <- grow sc.bad (!nbad + 1) 0;
      sc.bad.(!nbad) <- s;
      incr nbad
    end
  done;
  let nbad = !nbad in
  if !Obs.on then begin
    Obs.add c_cavity nbad;
    Obs.observe d_cavity (float_of_int nbad)
  end;
  if nbad = 0 then
    (* Every point is covered by a real or ghost triangle; an empty
       cavity means a duplicate point sat exactly on a vertex. *)
    invalid_arg "Triangulation: duplicate point"
  else begin
    let ne = 3 * nbad in
    sc.eu <- grow sc.eu ne 0;
    sc.ev <- grow sc.ev ne 0;
    for k = 0 to nbad - 1 do
      let s = sc.bad.(k) in
      let a = t.tv.(3 * s) and b = t.tv.((3 * s) + 1) in
      let c = t.tv.((3 * s) + 2) in
      sc.eu.(3 * k) <- a;
      sc.ev.(3 * k) <- b;
      sc.eu.((3 * k) + 1) <- b;
      sc.ev.((3 * k) + 1) <- c;
      sc.eu.((3 * k) + 2) <- c;
      sc.ev.((3 * k) + 2) <- a;
      t.live.(s) <- false
    done;
    let reused = ref 0 in
    for k = 0 to ne - 1 do
      let u = sc.eu.(k) and v = sc.ev.(k) in
      if not (cavity_has sc v u ne) then begin
        let s =
          if !reused < nbad then begin
            let s = sc.bad.(!reused) in
            incr reused;
            s
          end
          else append t
        in
        store t s u v pi
      end
    done
  end

let find_seed pts =
  let n = Array.length pts in
  (* first pair of distinct points, then first point non-collinear
     with them *)
  let rec third i j k =
    if k >= n then None
    else if
      k <> i && k <> j && Pred.orient2d pts.(i) pts.(j) pts.(k) <> Pred.Collinear
    then Some (i, j, k)
    else third i j (k + 1)
  in
  if n < 2 then None else third 0 1 0

(* Two points coincide when both coordinates compare equal under
   [Float.compare] (so 0. = -0. and nan = nan), found as neighbors in
   that order. *)
let check_distinct pts =
  let order = Array.init (Array.length pts) (fun i -> i) in
  Array.sort (fun i j -> P.compare pts.(i) pts.(j)) order;
  for k = 1 to Array.length order - 1 do
    if P.compare pts.(order.(k - 1)) pts.(order.(k)) = 0 then
      invalid_arg "Triangulation: duplicate point"
  done

let collinear_fallback pts =
  (* All points on one line (or fewer than 3 points): the Delaunay
     graph is the path along the line in sorted order. *)
  let idx = Array.init (Array.length pts) (fun i -> i) in
  let order = Array.copy idx in
  Array.sort (fun i j -> P.compare pts.(i) pts.(j)) order;
  let rec path i acc =
    if i + 1 >= Array.length order then List.rev acc
    else
      let u = order.(i) and v = order.(i + 1) in
      path (i + 1) ((min u v, max u v) :: acc)
  in
  path 0 []

let triangulate pts =
  Obs.incr c_triangulations;
  check_distinct pts;
  match find_seed pts with
  | None ->
    {
      pts;
      tv = [||];
      live = [||];
      slots = 0;
      collinear_path = Some (collinear_fallback pts);
    }
  | Some (i, j, k) ->
    let i, j, k =
      match Pred.orient2d pts.(i) pts.(j) pts.(k) with
      | Pred.Ccw -> (i, j, k)
      | Pred.Cw -> (i, k, j)
      | Pred.Collinear -> assert false (* find_seed skips collinear triples *)
    in
    (* n points end as 2n - 2 triangles, ghosts included *)
    let cap = (2 * Array.length pts) + 2 in
    let t =
      {
        pts;
        tv = Array.make (3 * cap) 0;
        live = Array.make cap false;
        slots = 0;
        collinear_path = None;
      }
    in
    store t (append t) i j k;
    (* ghost triangles on the three hull edges, exterior to the left
       of their directed edge: reverse each ccw edge of the seed *)
    store t (append t) j i ghost;
    store t (append t) k j ghost;
    store t (append t) i k ghost;
    let sc = { bad = Array.make 16 0; eu = Array.make 48 0; ev = Array.make 48 0 } in
    for p = 0 to Array.length pts - 1 do
      if p <> i && p <> j && p <> k then insert t sc p
    done;
    t

(* [f a b c] on every alive slot, ghosts included *)
let iter_alive t f =
  for s = 0 to t.slots - 1 do
    if t.live.(s) then f t.tv.(3 * s) t.tv.((3 * s) + 1) t.tv.((3 * s) + 2)
  done

let real_triangles t =
  let acc = ref [] in
  iter_alive t (fun a b c -> if c <> ghost then acc := (a, b, c) :: !acc);
  !acc

let triangles t = List.sort cmp_tri (real_triangles t)

(* a stored triangle matches when its corners are (i, j, k) in any
   order *)
let has_triangle t i j k =
  let sorted a b c = List.sort Int.compare [ a; b; c ] in
  let want = sorted i j k in
  let found = ref false in
  iter_alive t (fun a b c -> if sorted a b c = want then found := true);
  !found

let edges t =
  match t.collinear_path with
  | Some path -> path
  | None ->
    let set = Hashtbl.create 64 in
    List.iter
      (fun (a, b, c) ->
        List.iter
          (fun (u, v) -> Hashtbl.replace set (min u v, max u v) ())
          [ (a, b); (b, c); (c, a) ])
      (real_triangles t);
    List.sort cmp_int_pair (Hashtbl.fold (fun e () acc -> e :: acc) set [])

let hull t =
  match t.collinear_path with
  | Some path ->
    (* ordered point sequence along the line *)
    (match path with
    | [] -> if Array.length t.pts = 1 then [ 0 ] else []
    | (u, _) :: _ ->
      u :: List.map (fun (_, v) -> v) path)
  | None ->
    (* ghost triangles (a, b, ghost) carry directed hull edges a -> b
       with exterior left, i.e. the hull in clockwise orientation;
       chain them and reverse for ccw. *)
    let next = Hashtbl.create 16 in
    iter_alive t (fun a b c -> if c = ghost then Hashtbl.replace next a b);
    (* lint: disable D002 commutative min-fold: any visit order yields the same minimum *)
    (match Hashtbl.fold (fun a _ acc -> min a acc) next max_int with
    | start when start = max_int -> []
    | start ->
      let rec chain v acc =
        let w = Hashtbl.find next v in
        if w = start then List.rev (v :: acc) else chain w (v :: acc)
      in
      List.rev (chain start []))

let triangles_of_vertex t v =
  List.filter (fun (a, b, c) -> a = v || b = v || c = v) (triangles t)

let is_delaunay pts tris =
  List.for_all
    (fun (a, b, c) ->
      Pred.orient2d pts.(a) pts.(b) pts.(c) <> Pred.Collinear
      && Array.for_all
           (fun p ->
             P.equal p pts.(a) || P.equal p pts.(b) || P.equal p pts.(c)
             || not (Pred.incircle pts.(a) pts.(b) pts.(c) p))
           pts)
    tris
