(* A growable FIFO of frames in one int array (power-of-two capacity):
   push and pop allocate nothing once the array has reached the queue's
   high-water mark. *)
type ring = { mutable buf : Frame.t array; mutable head : int; mutable len : int }

let ring () = { buf = Array.make 16 0; head = 0; len = 0 }

let push r pfn =
  let cap = Array.length r.buf in
  if r.len = cap then begin
    let buf = Array.make (2 * cap) 0 in
    for i = 0 to r.len - 1 do
      buf.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- buf;
    r.head <- 0
  end;
  r.buf.((r.head + r.len) land (Array.length r.buf - 1)) <- pfn;
  r.len <- r.len + 1

(* The caller checks [len > 0]. *)
let pop r =
  let pfn = r.buf.(r.head) in
  r.head <- (r.head + 1) land (Array.length r.buf - 1);
  r.len <- r.len - 1;
  pfn

type t = { mem : Phys_mem.t; dirty : ring; zeroed : ring }

(* One erase command is modelled as a fixed device latency, ~1 us: the point
   of E9 is that it does not scale with the extent size. *)
let bulk_erase_cycles = 2000

let no_frame = -1

let create mem = { mem; dirty = ring (); zeroed = ring () }
let put_dirty t pfn = push t.dirty pfn

let put_dirty_range t ~first ~count =
  for pfn = first to first + count - 1 do
    push t.dirty pfn
  done

let take_zeroed t = if t.zeroed.len = 0 then no_frame else pop t.zeroed

(* The span closures are built only when a profiler is attached. *)
let eager_zero t pfn =
  let trace = Phys_mem.trace t.mem in
  if Sim.Profile.enabled (Sim.Trace.profile trace) then
    Sim.Trace.prof_span trace "zeroing" (fun () -> Phys_mem.zero_frame t.mem pfn)
  else Phys_mem.zero_frame t.mem pfn

let launder t ~budget_frames =
  let n = ref 0 in
  while !n < budget_frames && t.dirty.len > 0 do
    let pfn = pop t.dirty in
    Phys_mem.zero_frame t.mem pfn;
    push t.zeroed pfn;
    incr n
  done;
  !n

let background_step t ~budget_frames =
  let trace = Phys_mem.trace t.mem in
  if Sim.Profile.enabled (Sim.Trace.profile trace) then
    Sim.Trace.prof_span trace "background_zero" (fun () -> launder t ~budget_frames)
  else launder t ~budget_frames

let bulk_erase t ~first ~count =
  if count < 0 then invalid_arg "Zero_engine.bulk_erase: negative count";
  (* The device clears contents internally (e.g. by dropping a media
     encryption key), so no per-byte CPU cost is charged — only the fixed
     command latency below. *)
  for pfn = first to first + count - 1 do
    if Phys_mem.valid_frame t.mem pfn then Phys_mem.discard_frame t.mem pfn
  done;
  Sim.Clock.charge (Phys_mem.clock t.mem) bulk_erase_cycles;
  Sim.Stats.incr (Phys_mem.stats t.mem) "bulk_erase_cmds"

let pending t = t.dirty.len
let available t = t.zeroed.len
