(* Pool-reachability cases: each module seeds its own parallel region,
   so one module's effects never reach another's. *)

module Chain = struct
  let leaf () = Random.int 5

  let middle () = leaf () + 1

  let driver p =
    Netgraph.Pool.parallel_for p ~n:2 (fun () i -> ignore (middle () + i))
end

module Unreachable = struct
  let unrelated () = Random.int 7

  let calm x = x + 1

  let driver p = Netgraph.Pool.parallel_for p ~n:2 (fun () i -> ignore (calm i))
end

module Clock_on = struct
  let work _ = Unix.gettimeofday ()

  let driver p = Netgraph.Pool.parallel_for p ~n:2 (fun () i -> ignore (work i))
end

module Clock_off = struct
  let cold () = Unix.gettimeofday ()
end

module Unordered_fold = struct
  let work tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []

  let driver p tbl =
    Netgraph.Pool.parallel_for p ~n:2 (fun () _ -> ignore (work tbl))
end

module Sorted_fold = struct
  let work tbl = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) tbl [])

  let driver p tbl =
    Netgraph.Pool.parallel_for p ~n:2 (fun () _ -> ignore (work tbl))
end

module Shared_global = struct
  let acc = ref []

  let work x = acc := x :: !acc

  let driver p = Netgraph.Pool.parallel_for p ~n:2 (fun () i -> work i)
end

module Atomic_global = struct
  let acc = Atomic.make 0

  let work _ = Atomic.incr acc

  let driver p = Netgraph.Pool.parallel_for p ~n:2 (fun () i -> work i)
end

module Unreferenced_global = struct
  let acc : int list ref = ref []

  let work x = ignore (x + 1)

  let driver p = Netgraph.Pool.parallel_for p ~n:2 (fun () i -> work i)
end

module Graph_mut = struct
  let work g = Netgraph.Graph.add_edge g 0 1

  let driver p g = Netgraph.Pool.parallel_for p ~n:2 (fun () _ -> work g)
end

module Builder_add = struct
  let work b = Netgraph.Builder.add_edge b 0 1

  let driver p b = Netgraph.Pool.parallel_for p ~n:2 (fun () _ -> work b)
end

module Print_on = struct
  let work _ = print_endline "x"

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () i -> work i)
end

module Print_guarded = struct
  let once = Atomic.make false

  let work _ = if not (Atomic.exchange once true) then print_endline "x"

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () i -> work i)
end

module Print_off = struct
  let report () = print_endline "x"
end

module Escaping_failwith = struct
  let work u = if u < 0 then failwith "neg" else u

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () i -> ignore (work i))
end

module Handled = struct
  let risky u = if u < 0 then failwith "neg" else u

  let work u = try risky u with _ -> 0

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () i -> ignore (work i))
end
