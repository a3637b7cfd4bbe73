(* Call-graph hard cases: each module seeds its own parallel region,
   so one module's effects never reach another's. *)

module Functor_app = struct
  module Cfg = struct
    let n = 3
  end

  module Mk (R : sig
    val n : int
  end) =
  struct
    let noisy () = Random.int R.n

    let unused_noise () = Random.bits ()
  end

  module Inst = Mk (Cfg)

  let driver p =
    Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (Inst.noisy ()))
end

module Local_open = struct
  module Helpers = struct
    let noisy () = Random.int 4
  end

  let f () =
    let open Helpers in
    noisy ()

  let lone () = Random.int 8

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end

module Alias_call = struct
  module Helpers = struct
    let noisy () = Random.int 4
  end

  module H = Helpers

  let f () = H.noisy ()

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end

module Alias_no_call = struct
  module Helpers = struct
    let noisy () = Random.int 4
  end

  module H = Helpers

  let f () = 0

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end

module Shadowed = struct
  let noisy () = Random.int 4

  let f () =
    let noisy () = 0 in
    noisy ()

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end

module Unshadowed = struct
  let noisy () = Random.int 4

  let f () = noisy ()

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end

module Cycle_reached = struct
  let rec ping n = if n = 0 then Random.int 3 else pong (n - 1)

  and pong n = ping (n / 2)

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () i -> ignore (pong i))
end

module Cycle_unreached = struct
  let rec ping n = if n = 0 then Random.int 3 else pong (n - 1)

  and pong n = ping (n / 2)

  let other i = i + 1

  let driver p =
    Netgraph.Pool.parallel_for p ~n:1 (fun () i -> ignore (other i))
end

(* [open A] then [open B]: the bare [noise] is B's, so A's Random is
   out of the region; with the opens swapped it is A's. *)
module Two_opens = struct
  module A = struct
    let noise () = Random.int 3
  end

  module B = struct
    let noise () = 0
  end

  open A
  open B

  let f () = noise ()

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end

module Two_opens_swapped = struct
  module A = struct
    let noise () = Random.int 3
  end

  module B = struct
    let noise () = 0
  end

  open B
  open A

  let f () = noise ()

  let driver p = Netgraph.Pool.parallel_for p ~n:1 (fun () _ -> ignore (f ()))
end
