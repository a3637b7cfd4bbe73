module Uppercase = struct
  let c = Obs.counter "Serve.Queries"
end

module Space = struct
  let d = Obs.dist "serve hops"
end

module Dotted = struct
  let c = Obs.counter "serve.queries_total.v2"
end

module Computed = struct
  let c name n = Obs.counter (Printf.sprintf "bench.%s.n%d" name n)
end
