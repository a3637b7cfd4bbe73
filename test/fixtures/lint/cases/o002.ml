module Raw_send = struct
  let f () =
    Obs.Trace.send ~round:0 ~time:0. ~kind:"k" ~src:0 ~dst:(-1) ~lam:1 ~sseq:0
end

module Channel_send = struct
  module Channel = struct
    let send _ _ = ()
  end

  let f ch m = Channel.send ch m
end
