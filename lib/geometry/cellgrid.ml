(* Flat counting-sort spatial buckets.

   [Grid] hashes cells into a Hashtbl and bumps Obs counters on
   every query, which makes it unusable from pool worker domains
   (the Obs registry is not domain-safe) and costly at 10^6 nodes.
   This grid is the shard pipeline's substrate instead: three int
   arrays, built once, immutable afterwards — reads are safe from any
   number of domains.  Buckets keep node ids in ascending order (the
   counting sort scans ids in order twice), so every iteration order
   below is deterministic.

   The same structure has three uses: with [cell_size = radius] it
   drives CSR-native UDG construction, with [cell_size = tile side]
   its buckets ARE the tile ownership sets of the sharded pipeline,
   and over edge midpoints with [cell_size >= longest edge] it
   enumerates the planarity checker's crossing candidates. *)

module P = Point

type t = {
  cell : float;
  x0 : float;
  y0 : float;
  nx : int;
  ny : int;
  start : int array;  (* bucket k holds order.(start.(k) .. start.(k+1)-1) *)
  order : int array;  (* node ids grouped by bucket, ascending within *)
  cell_ix : int array;  (* node -> bucket index *)
}

let cell_index t x y =
  let cx = int_of_float ((x -. t.x0) /. t.cell) in
  let cy = int_of_float ((y -. t.y0) /. t.cell) in
  let cx = if cx < 0 then 0 else if cx >= t.nx then t.nx - 1 else cx in
  let cy = if cy < 0 then 0 else if cy >= t.ny then t.ny - 1 else cy in
  (cy * t.nx) + cx

let create ~cell_size points =
  if cell_size <= 0. then invalid_arg "Cellgrid.create: cell_size <= 0";
  let n = Array.length points in
  let x0 = ref infinity and y0 = ref infinity in
  let x1 = ref neg_infinity and y1 = ref neg_infinity in
  Array.iter
    (fun (p : P.t) ->
      if p.x < !x0 then x0 := p.x;
      if p.x > !x1 then x1 := p.x;
      if p.y < !y0 then y0 := p.y;
      if p.y > !y1 then y1 := p.y)
    points;
  let x0 = if n = 0 then 0. else !x0 and y0 = if n = 0 then 0. else !y0 in
  let span lo hi = if n = 0 then 0. else hi -. lo in
  let dim s = max 1 (1 + int_of_float (s /. cell_size)) in
  let nx = dim (span x0 !x1) and ny = dim (span y0 !y1) in
  let t =
    {
      cell = cell_size;
      x0;
      y0;
      nx;
      ny;
      start = Array.make ((nx * ny) + 1) 0;
      order = Array.make n 0;
      cell_ix = Array.make n 0;
    }
  in
  for u = 0 to n - 1 do
    let k = cell_index t points.(u).P.x points.(u).P.y in
    t.cell_ix.(u) <- k;
    t.start.(k + 1) <- t.start.(k + 1) + 1
  done;
  for k = 0 to (nx * ny) - 1 do
    t.start.(k + 1) <- t.start.(k) + t.start.(k + 1)
  done;
  let cursor = Array.copy t.start in
  for u = 0 to n - 1 do
    let k = t.cell_ix.(u) in
    t.order.(cursor.(k)) <- u;
    cursor.(k) <- cursor.(k) + 1
  done;
  t

(* Relative padding of [covering_side].  Float rounding in the extents,
   the keys and the cell-index arithmetic is a few ulps of the extent
   and of the coordinates' magnitude; padding by 1e-9 of both keeps
   the computed cell indices of a true pair at most one apart. *)
let margin = 1e-9

(* The lower bound [span / (1 + sqrt m)] only ever enlarges the cells
   (which cannot lose a pair); it caps the grid at O(m) cells when
   every extent is short compared with the spread of the keys. *)
let covering_side ~extent keys =
  let x0 = ref infinity and x1 = ref neg_infinity in
  let y0 = ref infinity and y1 = ref neg_infinity in
  let scale = ref 0. in
  Array.iter
    (fun (p : P.t) ->
      x0 := Float.min !x0 p.x;
      x1 := Float.max !x1 p.x;
      y0 := Float.min !y0 p.y;
      y1 := Float.max !y1 p.y;
      scale := Float.max !scale (Float.max (Float.abs p.x) (Float.abs p.y)))
    keys;
  let m = Array.length keys in
  let span = Float.max (!x1 -. !x0) (!y1 -. !y0) in
  let lossless = (extent *. (1. +. margin)) +. (margin *. !scale) in
  let capped =
    span /. float_of_int (1 + int_of_float (sqrt (float_of_int m)))
  in
  let side = Float.max lossless capped in
  if side > 0. then side else 1.

let cells t = t.nx * t.ny
let cols t = t.nx
let rows t = t.ny
let cell_of t u = t.cell_ix.(u)

let iter_cell t k f =
  for i = t.start.(k) to t.start.(k + 1) - 1 do
    f t.order.(i)
  done

let nodes_of t k =
  Array.sub t.order t.start.(k) (t.start.(k + 1) - t.start.(k))

let population t k = t.start.(k + 1) - t.start.(k)

(* the 3x3 cell block around [u]'s cell, cells in (row, column) order,
   ascending node ids within each cell *)
let iter_near t u f =
  let k = t.cell_ix.(u) in
  let cx = k mod t.nx and cy = k / t.nx in
  for dy = -1 to 1 do
    let y = cy + dy in
    if y >= 0 && y < t.ny then
      for dx = -1 to 1 do
        let x = cx + dx in
        if x >= 0 && x < t.nx then iter_cell t ((y * t.nx) + x) f
      done
  done

(* ring of cells at Chebyshev distance exactly [r] around cell [k] *)
let iter_ring_cells t k r f =
  let cx = k mod t.nx and cy = k / t.nx in
  for dy = -r to r do
    let y = cy + dy in
    if y >= 0 && y < t.ny then
      for dx = -r to r do
        if abs dx = r || abs dy = r then begin
          let x = cx + dx in
          if x >= 0 && x < t.nx then f ((y * t.nx) + x)
        end
      done
  done

let cell_at t (p : P.t) = cell_index t p.P.x p.P.y
