module Bare_assert = struct
  let f () = assert false
end

module Commented_assert = struct
  let f () = assert false (* unreachable: guarded above *)
end

module Empty_failwith = struct
  let f () = failwith ""
end

module Failwith_message = struct
  let f () = failwith "boom"
end

module Ordinary_assert = struct
  let f x = assert (x > 0)
end
