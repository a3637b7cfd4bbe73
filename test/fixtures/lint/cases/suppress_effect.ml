let work _ =
  (* lint: disable E001 single writer: the pool pins slot 0 *)
  print_endline "x"

let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () i -> work i)
