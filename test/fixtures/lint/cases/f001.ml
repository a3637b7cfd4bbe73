module Sort_compare = struct
  let s (l : float list) = List.sort compare l
end

module Min_float = struct
  let m x = min x 0.5
end

module Float_compare = struct
  let s (l : float list) = List.sort Float.compare l
end

module Define_compare = struct
  let compare (a : float) (b : float) = 0
end

module Int_min = struct
  let m x = min 1 x
end
