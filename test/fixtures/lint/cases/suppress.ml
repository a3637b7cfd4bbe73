module Reasoned = struct
  let f x =
    (* lint: disable H002 serialized through a stable tag, reviewed *)
    Obj.magic x
end

module Wrong_rule = struct
  let f x =
    (* lint: disable H003 wrong rule *)
    Obj.magic x
end

module Reasonless = struct
  let f x =
    (* lint: disable H002 *)
    Obj.magic x
end
