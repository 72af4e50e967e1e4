(* Host-side measurement primitives shared by every workload: the host
   clock, GC allocation counters, per-call span recorders and the
   per-round record that perfbench.ml aggregates into metrics.

   Everything here reads clocks and counters; nothing charges the
   simulator's virtual clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated so far: minor + major - promoted, so a block promoted
   from the minor heap is counted once. *)
let words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

(* [words] itself allocates its result tuple; that constant is measured
   once and subtracted from every per-op reading. *)
let words_bias =
  lazy
    (let w0 = words () in
     let w1 = words () in
     w1 - w0)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

let sorted_copy a =
  let s = Array.copy a in
  Array.sort compare s;
  s

(* A span records one benchmark call into a layer's public function: its
   host ns and the virtual cycles it charged. Buffers are sized before
   the loop so recording never allocates. *)
type span = { name : string; mutable n : int; ns : int array; cycles : int array }

let span name ~capacity = { name; n = 0; ns = Array.make capacity 0; cycles = Array.make capacity 0 }

let record sp ~ns ~cycles =
  sp.ns.(sp.n) <- ns;
  sp.cycles.(sp.n) <- cycles;
  sp.n <- sp.n + 1

(* Traced-round bookkeeping: spans by layer call, gauges sampled between
   ops, and counter totals observed at layer boundaries. *)
type trace = {
  spans : span list;
  mutable footprint_peak : int;  (** heap footprint, bytes *)
  mutable free_frames_min : int;  (** buddy free frames *)
  mutable resident_frames_peak : int;  (** frames holding host bytes *)
  mutable files_reaped : int;  (** memfs files disappearing across heap calls *)
}

let new_trace spans =
  {
    spans;
    footprint_peak = 0;
    free_frames_min = max_int;
    resident_frames_peak = 0;
    files_reaped = 0;
  }

let find_span tr name = List.find (fun s -> s.name = name) tr.spans

(* Physical frames currently backed by a host buffer (nonzero content).
   A full scan, so traced rounds sample it every [resident_sample_every]
   ops rather than after each. *)
let resident_frames mem =
  let n = ref 0 in
  for pfn = 0 to Physmem.Phys_mem.total_frames mem - 1 do
    if not (Physmem.Phys_mem.frame_is_zero mem pfn) then incr n
  done;
  !n

let resident_sample_every = 512

(* Set-up is short next to the loop, and host speed drifts in phases of
   several seconds, so each round sets up [setups_per_round] times, keeps
   the last machine, and reports every timing; the run reports the
   fastest of all its samples. A full major GC before each keeps the
   discarded machines from piling up as garbage. *)
let setups_per_round = 3

let time_setup f =
  let rec go k acc =
    Gc.full_major ();
    let t0 = now_ns () in
    let x = f () in
    let acc = (float_of_int (now_ns () - t0) /. 1e9) :: acc in
    if k <= 1 then (acc, x) else go (k - 1) acc
  in
  go setups_per_round []

(* One round: a fresh machine, set up, driven through the whole generated
   input, checked and torn down. *)
type round = {
  setup_s : float list;
  attempted : int;
  failed : int;
  op_ns : int array;  (** host ns of each client op *)
  op_cycles : int array;  (** virtual cycles of each client op *)
  words : int;  (** words allocated inside op windows, bias removed *)
  frames_leaked : int;
  counters : (string * int) list;  (** stat and trace-op deltas over the loop, plus end-state values *)
  trace : trace option;
  errors : string list;  (** oracle failures, for stderr *)
}

(* The per-round values that must repeat exactly for a given seed, in
   untraced and traced rounds alike. *)
let signature r =
  ( r.attempted,
    r.failed,
    Array.fold_left ( + ) 0 r.op_cycles,
    percentile (sorted_copy r.op_cycles) 99.,
    r.frames_leaked,
    r.counters )

(* Frames taken from the buddy pool at boot and not back in it, nor queued
   for zeroing, nor stashed pre-zeroed. The baseline is the buddy's free
   count on a fresh kernel. *)
let frames_leaked k ~baseline =
  let zc = Os.Kernel.zero_cache k and ze = Os.Kernel.zero_engine k in
  let cached = ref 0 in
  for order = 0 to 10 do
    cached := !cached + (Alloc.Zero_cache.available zc ~order lsl order)
  done;
  baseline
  - Alloc.Buddy.free_frames_count (Os.Kernel.buddy k)
  - Physmem.Zero_engine.pending ze
  - Physmem.Zero_engine.available ze
  - !cached

(* Frames of the FOM master page tables still in [Shared_pt]; part of
   [frames_leaked], reported on its own. *)
let master_frames fom =
  O1mem.Shared_pt.metadata_bytes (O1mem.Fom.shared_pt fom) / Sim.Units.page_size

(* The counters a round diffs across its timed loop. *)
let counter_snapshot k = Sim.Stats.snapshot (Os.Kernel.stats k)

let violations_to_errors what vs =
  List.map (fun v -> what ^ ": " ^ Os.Check.violation_to_string v) vs
