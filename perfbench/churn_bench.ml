(* churn_malloc and churn_fom: one allocation-churn trace, generated from
   the seed, replayed against the baseline heap (Heap.Malloc_sim over
   Os.Kernel, per-page demand paging) or the file-only heap
   (Heap.Fom_heap over O1mem.Fom, whole-file maps). *)

module K = Os.Kernel
module M = Measure

type backend = Malloc | Fom

let steps_per_round = 20_000
let min_bytes = 64
let max_bytes = Sim.Units.mib 1
let mean_lifetime = 50

(* The machine every workload runs on: 256 MiB DRAM + 256 MiB NVM, one
   core. The host heap grows with the simulated memory, so it is kept
   small. *)
let machine () =
  K.create
    ~config:
      {
        K.default_config with
        K.dram_bytes = Sim.Units.mib 256;
        nvm_bytes = Sim.Units.mib 256;
        cores = 1;
      }
    ()

(* The trace as flat arrays: op kind (0 alloc, 1 touch, 2 free), block id,
   and requested bytes for allocs. *)
type input = { kind : int array; id : int array; bytes : int array; blocks : int }

let generate ~seed ~steps =
  let rng = Sim.Rng.create ~seed in
  let ops =
    Array.of_list (Wl.Churn.generate ~rng ~ops:steps ~min_bytes ~max_bytes ~mean_lifetime ())
  in
  let n = Array.length ops in
  let kind = Array.make n 0 and id = Array.make n 0 and bytes = Array.make n 0 in
  Array.iteri
    (fun i op ->
      match op with
      | Wl.Churn.Alloc { id = b; bytes = s } ->
        id.(i) <- b;
        bytes.(i) <- s
      | Touch { id = b } ->
        kind.(i) <- 1;
        id.(i) <- b
      | Free { id = b } ->
        kind.(i) <- 2;
        id.(i) <- b)
    ops;
  { kind; id; bytes; blocks = steps }

(* The heap under test, behind one record so the loop is backend-blind. *)
type heap = {
  malloc : bytes:int -> int;
  free : int -> unit;
  touch : va:int -> len:int -> int;
  size_of : int -> int option;
  live_bytes : unit -> int;
  footprint : unit -> int;
  files : unit -> int;  (** memfs files backing the heap (0 for malloc) *)
  teardown : unit -> unit;
}

let touch_layer = function Malloc -> "vm.access_range" | Fom -> "fom.access_range"

let boot backend =
  let k = machine () in
  let baseline = Alloc.Buddy.free_frames_count (K.buddy k) in
  let page = Sim.Units.page_size in
  let heap, fom =
    match backend with
    | Malloc ->
      let p = K.create_process k () in
      let h = Heap.Malloc_sim.create k p in
      ( {
          malloc = (fun ~bytes -> Heap.Malloc_sim.malloc h ~bytes);
          free = Heap.Malloc_sim.free h;
          touch = (fun ~va ~len -> K.access_range k p ~va ~len ~write:true ~stride:page);
          size_of = Heap.Malloc_sim.size_of h;
          live_bytes = (fun () -> Heap.Malloc_sim.live_bytes h);
          footprint = (fun () -> Heap.Malloc_sim.footprint_bytes h);
          files = (fun () -> 0);
          teardown = (fun () -> K.exit_process k p);
        },
        None )
    | Fom ->
      let fom = O1mem.Fom.create k () in
      let p = K.create_process k () in
      let h = Heap.Fom_heap.create fom p () in
      let fs = O1mem.Fom.fs fom in
      ( {
          malloc = (fun ~bytes -> Heap.Fom_heap.malloc h ~bytes);
          free = Heap.Fom_heap.free h;
          touch =
            (fun ~va ~len -> O1mem.Fom.access_range fom p ~va ~len ~write:true ~stride:page);
          size_of = Heap.Fom_heap.size_of h;
          live_bytes = (fun () -> Heap.Fom_heap.live_bytes h);
          footprint = (fun () -> Heap.Fom_heap.footprint_bytes h);
          files = (fun () -> Fs.Memfs.file_count fs);
          teardown =
            (fun () ->
              Heap.Fom_heap.destroy h;
              O1mem.Fom.exit_process fom p);
        },
        Some fom )
  in
  (k, baseline, heap, fom)

let spans backend ~capacity =
  List.map
    (fun name -> M.span name ~capacity)
    [ "heap.malloc"; "heap.free"; touch_layer backend ]

(* Live blocks by VA, to check that no two allocations overlap. *)
module Live = Map.Make (Int)

let setup backend ~seed () =
  let input = generate ~seed ~steps:steps_per_round in
  (input, boot backend)

let run_round backend ~seed ~traced =
  let setup_s, (input, (k, baseline, h, fom)) = M.time_setup (setup backend ~seed) in
  let n = Array.length input.kind in
  let clock = K.clock k and mem = K.mem k and buddy = K.buddy k in
  let op_ns = Array.make n 0 and op_cycles = Array.make n 0 in
  let tr = if traced then Some (M.new_trace (spans backend ~capacity:n)) else None in
  let sp_malloc, sp_free, sp_touch =
    match tr with
    | Some tr ->
      (M.find_span tr "heap.malloc", M.find_span tr "heap.free", M.find_span tr (touch_layer backend))
    | None ->
      let dummy = M.span "" ~capacity:0 in
      (dummy, dummy, dummy)
  in
  (* Per block: VA, requested bytes, usable bytes the heap reported. *)
  let vas = Array.make input.blocks (-1) and sizes = Array.make input.blocks 0 in
  let usable = Array.make input.blocks 0 in
  let live = ref Live.empty and mirror_live = ref 0 in
  let failed = ref 0 and errors = ref [] in
  let fail msg =
    incr failed;
    if List.length !errors < 20 then errors := msg :: !errors
  in
  let bias = Lazy.force M.words_bias in
  let words = ref 0 in
  let before = M.counter_snapshot k in
  for i = 0 to n - 1 do
    let b = input.id.(i) in
    let files0 = if traced then h.files () else 0 in
    let w0 = M.words () in
    let c0 = Sim.Clock.now clock in
    let t0 = M.now_ns () in
    let result =
      try
        match input.kind.(i) with
        | 0 ->
          let bytes = input.bytes.(i) in
          if traced then begin
            let s0 = M.now_ns () and sc = Sim.Clock.now clock in
            let va = h.malloc ~bytes in
            M.record sp_malloc ~ns:(M.now_ns () - s0) ~cycles:(Sim.Clock.now clock - sc);
            va
          end
          else h.malloc ~bytes
        | 1 ->
          let va = vas.(b) in
          if va < 0 then -1
          else if traced then begin
            let s0 = M.now_ns () and sc = Sim.Clock.now clock in
            let r = h.touch ~va ~len:sizes.(b) in
            M.record sp_touch ~ns:(M.now_ns () - s0) ~cycles:(Sim.Clock.now clock - sc);
            r
          end
          else h.touch ~va ~len:sizes.(b)
        | _ ->
          let va = vas.(b) in
          if va < 0 then -1
          else if traced then begin
            let s0 = M.now_ns () and sc = Sim.Clock.now clock in
            h.free va;
            M.record sp_free ~ns:(M.now_ns () - s0) ~cycles:(Sim.Clock.now clock - sc);
            0
          end
          else begin
            h.free va;
            0
          end
      with Sim.Errno.Error (e, what) ->
        fail (Printf.sprintf "op %d: %s (%s)" i (Sim.Errno.to_string e) what);
        -2
    in
    let t1 = M.now_ns () in
    let c1 = Sim.Clock.now clock in
    let w1 = M.words () in
    op_ns.(i) <- t1 - t0;
    op_cycles.(i) <- c1 - c0;
    words := !words + (w1 - w0 - bias);
    (* Oracle, outside the op window. *)
    (match input.kind.(i) with
    | 0 when result >= 0 ->
      let va = result and want = input.bytes.(i) in
      (match h.size_of va with
      | Some s when s >= want ->
        let overlaps =
          (match Live.find_last_opt (fun v -> v <= va) !live with
          | Some (_, e) -> e > va
          | None -> false)
          || match Live.find_first_opt (fun v -> v > va) !live with
             | Some (v, _) -> va + want > v
             | None -> false
        in
        if overlaps then fail (Printf.sprintf "op %d: block at %#x overlaps a live block" i va);
        vas.(b) <- va;
        sizes.(b) <- want;
        usable.(b) <- s;
        live := Live.add va (va + want) !live;
        mirror_live := !mirror_live + s
      | _ -> fail (Printf.sprintf "op %d: malloc %d returned %#x with a bad size" i want va))
    | 1 when result >= 0 ->
      let page = Sim.Units.page_size in
      let expected = (sizes.(b) + page - 1) / page in
      if result <> expected then
        fail (Printf.sprintf "op %d: touched %d pages, expected %d" i result expected)
    | 2 when result >= 0 ->
      let va = vas.(b) in
      (match h.size_of va with
      | None -> ()
      | Some _ -> fail (Printf.sprintf "op %d: block %#x still live after free" i va));
      live := Live.remove va !live;
      mirror_live := !mirror_live - usable.(b);
      vas.(b) <- -1
    | _ when result = -1 -> fail (Printf.sprintf "op %d: block %d was never allocated" i b)
    | _ -> ());
    if input.kind.(i) <> 1 && h.live_bytes () <> !mirror_live then
      fail (Printf.sprintf "op %d: heap reports %d live bytes, expected %d" i (h.live_bytes ()) !mirror_live);
    (match tr with
    | Some tr ->
      if input.kind.(i) <> 1 then begin
        tr.M.footprint_peak <- max tr.M.footprint_peak (h.footprint ());
        tr.M.files_reaped <- tr.M.files_reaped + max 0 (files0 - h.files ())
      end;
      tr.M.free_frames_min <- min tr.M.free_frames_min (Alloc.Buddy.free_frames_count buddy);
      if i mod M.resident_sample_every = 0 || i = n - 1 then
        tr.M.resident_frames_peak <- max tr.M.resident_frames_peak (M.resident_frames mem)
    | None -> ())
  done;
  let after = M.counter_snapshot k in
  (* Drain: the trace frees every block it allocated. *)
  if h.live_bytes () <> 0 then
    fail (Printf.sprintf "drain: heap reports %d live bytes" (h.live_bytes ()));
  let after_drain = Os.Check.run k in
  List.iter fail (M.violations_to_errors "after drain" after_drain);
  h.teardown ();
  List.iter fail (M.violations_to_errors "after teardown" (Os.Check.run k));
  let held = match fom with Some f -> M.master_frames f | None -> 0 in
  {
    M.setup_s;
    attempted = n;
    failed = !failed;
    op_ns;
    op_cycles;
    words = !words;
    frames_leaked = M.frames_leaked k ~baseline;
    counters = Sim.Stats.diff ~before ~after @ [ ("master_frames_held", held) ];
    trace = tr;
    errors = List.rev !errors;
  }
