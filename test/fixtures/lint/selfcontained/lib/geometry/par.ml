(* Parallel-seeded side of the fixture: a Pool.parallel_for callback
   whose chain reaches Random / a wall clock / shared mutable state,
   so the retargeted interprocedural rules (and E001/E002) also fire
   on this tree.  Built with warnings off. *)

let hits = ref 0

let noise () = Random.float 1.0 (* D001, via the chain below *)

let jitter x =
  incr hits (* M001: shared toplevel ref *) ;
  x +. noise ()

let step u =
  print_endline "step" (* E001: blocking I/O, no guard on the chain *) ;
  if u < 0.0 then failwith "negative" (* E002: no handler on the chain *) ;
  jitter u

let run pool xs = Netgraph.Pool.parallel_for pool ~n:(Array.length xs) (fun () i -> ignore (step xs.(i)))

let cold () = Random.bits () (* not reachable from any seed: must NOT fire *)
