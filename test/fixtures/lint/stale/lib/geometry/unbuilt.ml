(* A source no dune stanza compiles, so it has no .cmt: spanner_lint
   must refuse this tree (exit 2) rather than silently skip the
   module. *)

let unbuilt () = Random.int 3
