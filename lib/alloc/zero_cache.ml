type t = {
  mem : Physmem.Phys_mem.t;
  engine : Physmem.Zero_engine.t;
  queues : Physmem.Frame.t Queue.t array; (* index = block order *)
}

let create ~mem ~engine ?(max_order = 4) () =
  if max_order < 0 then invalid_arg "Zero_cache.create: negative max_order";
  { mem; engine; queues = Array.init (max_order + 1) (fun _ -> Queue.create ()) }

let model t = Sim.Clock.model (Physmem.Phys_mem.clock t.mem)

(* Current cached-frame count across all orders, as a gauge with deltas
   (the machine Stats is shared). *)
let depth_delta t d =
  if d <> 0 then Sim.Stats.add_gauge (Physmem.Phys_mem.stats t.mem) "zero_cache_depth" d

let take t ~order =
  let stats = Physmem.Phys_mem.stats t.mem in
  if order < 0 || order >= Array.length t.queues then begin
    Sim.Stats.incr stats "zero_cache_miss";
    None
  end
  else if
    Sim.Fault_inject.fires
      (Sim.Trace.faults (Physmem.Phys_mem.trace t.mem))
      ~site:Sim.Fault_inject.site_zero_cache_empty
  then begin
    (* Injected exhaustion: pretend the cache is dry so callers exercise
       their slow path. *)
    Sim.Stats.incr stats "zero_cache_miss";
    None
  end
  else
    match Queue.take_opt t.queues.(order) with
    | Some frame ->
      (* The O(1) handout: one pop, no zeroing on the critical path. *)
      Sim.Trace.prof_span (Physmem.Phys_mem.trace t.mem) "zero_cache_pop"
      @@ fun () ->
      Sim.Clock.charge (Physmem.Phys_mem.clock t.mem) (model t).Sim.Cost_model.zero_cache_pop;
      Sim.Stats.incr stats "zero_cache_hit";
      depth_delta t (-1);
      Some frame
    | None ->
      Sim.Stats.incr stats "zero_cache_miss";
      None

let put t ~order frame =
  if order < 0 || order >= Array.length t.queues then
    invalid_arg "Zero_cache.put: order out of range";
  Queue.push frame t.queues.(order);
  depth_delta t 1

let refill t ~budget_frames =
  let zeroed = Physmem.Zero_engine.background_step t.engine ~budget_frames in
  let rec drain n =
    let frame = Physmem.Zero_engine.take_zeroed t.engine in
    if frame = Physmem.Zero_engine.no_frame then n
    else begin
      Queue.push frame t.queues.(0);
      drain (n + 1)
    end
  in
  depth_delta t (drain 0);
  zeroed

let available t ~order =
  if order < 0 || order >= Array.length t.queues then 0 else Queue.length t.queues.(order)

let depth t = Array.fold_left (fun acc q -> acc + Queue.length q) 0 t.queues
