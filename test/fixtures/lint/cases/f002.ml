module Eq_zero = struct
  let f x = x = 0.
end

module Neq_eps = struct
  let f x = x <> 1e-9
end

module Eq_nan = struct
  let f x = x = nan
end

module Let_binding = struct
  let x = 0.
end

module Record_literal = struct
  type p = { x : float; y : float }

  let p = { x = 0.; y = 1.5 }
end

module Optional_default = struct
  let f ?(eps = 1e-9) x = x +. eps
end
