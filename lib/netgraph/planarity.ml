(* Written against the read-only View; Graph-typed adapters at the
   bottom keep existing callers compiling.  Why the midpoint-grid
   candidate scan below misses no crossing: see planarity.mli. *)

module S = Geometry.Segment

let c_candidates = Obs.counter "planarity.candidates"

let share_endpoint u1 v1 u2 v2 = u1 = u2 || u1 = v2 || v1 = u2 || v1 = v2

(* [iter_crossings g points f] calls [f u1 v1 u2 v2] for every pair of
   properly crossing edges, in all-pairs scan order: (u1, v1) before
   (u2, v2) in [View.edges g], pairs ascending by the first edge's
   index and then the second's.  The scan stops once [f]
   returns [false] (after the current first edge's hits). *)
let iter_crossings g points f =
  Obs.span "planarity" (fun () ->
      let m = View.edge_count g in
      let eu = Array.make m 0 and ev = Array.make m 0 in
      let k = ref 0 in
      View.iter_edges g (fun u v ->
          eu.(!k) <- u;
          ev.(!k) <- v;
          incr k);
      let seg =
        Array.init m (fun i -> S.make points.(eu.(i)) points.(ev.(i)))
      in
      let longest =
        Array.fold_left (fun l s -> Float.max l (S.length s)) 0. seg
      in
      let mids = Array.map S.midpoint seg in
      let grid =
        Geometry.Cellgrid.create
          ~cell_size:(Geometry.Cellgrid.covering_side ~extent:longest mids)
          mids
      in
      (* edge [i]'s hits, sorted before they are reported *)
      let hits = Array.make m 0 in
      let candidates = ref 0 in
      let rec from i =
        if i < m then begin
          let u1 = eu.(i) and v1 = ev.(i) and s1 = seg.(i) in
          let nh = ref 0 in
          Geometry.Cellgrid.iter_near grid i (fun j ->
              if j > i then begin
                incr candidates;
                if
                  (not (share_endpoint u1 v1 eu.(j) ev.(j)))
                  && S.properly_intersect s1 seg.(j)
                then begin
                  hits.(!nh) <- j;
                  incr nh
                end
              end);
          let found = Array.sub hits 0 !nh in
          Array.sort Int.compare found;
          if Array.for_all (fun j -> f u1 v1 eu.(j) ev.(j)) found then
            from (i + 1)
        end
      in
      from 0;
      Obs.add c_candidates !candidates)

let crossing_pairs_v g points =
  let acc = ref [] in
  iter_crossings g points (fun u1 v1 u2 v2 ->
      acc := ((u1, v1), (u2, v2)) :: !acc;
      true);
  List.rev !acc

let crossing_count_v g points =
  let count = ref 0 in
  iter_crossings g points (fun _ _ _ _ ->
      incr count;
      true);
  !count

let is_planar_v g points =
  let planar = ref true in
  iter_crossings g points (fun _ _ _ _ ->
      planar := false;
      false);
  !planar

let euler_bound_ok_v g =
  let n = View.node_count g in
  n < 3 || View.edge_count g <= (3 * n) - 6

(* ------------- legacy Graph-typed adapters ------------- *)

let crossing_pairs g points = crossing_pairs_v (View.of_graph g) points
let crossing_count g points = crossing_count_v (View.of_graph g) points
let is_planar g points = is_planar_v (View.of_graph g) points
let euler_bound_ok g = euler_bound_ok_v (View.of_graph g)
