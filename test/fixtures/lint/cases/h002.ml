module Magic = struct
  let f x = Obj.magic x
end

module Repr = struct
  let f x = Obj.repr x
end
