(* Deliberately rule-breaking module used by the dune runtest smoke to
   check that spanner_lint exits 1 on a dirty tree.  One violation per
   rule family (plus a missing .mli for H001); built with warnings off. *)

let cache : (int, int) Hashtbl.t = Hashtbl.create 16 (* M001: toplevel mutable state *)

let pick xs =
  let i = Random.int (List.length xs) (* D001 *) in
  List.nth xs i

let total tbl =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] (* D002: order leaks *)

let degenerate x = x = 0. (* F002 *)

let cmp_weights (a : float) b = compare a b (* F001 *)

let stamp () = Unix.gettimeofday () (* D003 *)

let boom () = assert false

let coerce (x : int) : float = Obj.magic x (* H002 *)
