(* P1 — where do the cycles go?

   Runs the allocation-churn workload with the span profiler attached to
   the machine trace, so every syscall/fault/TLB/zeroing span shows up in
   a call tree. The profiler is attached AFTER machine and heap setup:
   boot-time cycles (struct page init etc.) are out of scope, and the
   attributed fraction measures how much of the measured workload's
   cycles land in named spans.

   Everything P1 exports runs on the virtual clock with a fixed seed, so
   the profile is byte-identical across runs and hosts; the host ns and
   words the same spans carry are H1's business (exp_hostprof.ml). *)

module K = Os.Kernel

let default_ops = 400
let sample_interval_cycles = 50_000

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Resident set from /proc/self/statm (second field, in pages). Assumes
   4 KiB host pages; good enough for a gauge. 0 where /proc is absent. *)
let read_rss_kb () =
  match open_in "/proc/self/statm" with
  | exception _ -> 0
  | ic ->
    let line = try input_line ic with _ -> "" in
    close_in ic;
    (match String.split_on_char ' ' line with
    | _ :: resident :: _ -> (try int_of_string resident * 4 with _ -> 0)
    | _ -> 0)

(* A per-op wrapper: P1 runs each driver op bare, H1 wraps it in a span. *)
type wrap = { op : 'a. string -> (unit -> 'a) -> 'a }

let bare = { op = (fun _ f -> f ()) }

(* The churn driver P1 and H1 share: build machine + heap for [backend],
   attach a profiler, let [instrument] set up the run and pick the per-op
   wrapper, then replay the churn trace. Returns the kernel (for gauges
   and procfs rollups) and the profile. *)
let drive ~ops ~instrument backend =
  let rng = Sim.Rng.create ~seed:42 in
  let trace = Wl.Churn.generate ~rng ~ops ~max_bytes:(Sim.Units.kib 64) () in
  let k = Bench_env.kernel ~dram:(Sim.Units.gib 1) ~nvm:(Sim.Units.gib 1) () in
  let d =
    match backend with
    | `Malloc ->
      let p = K.create_process k () in
      let h = Heap.Malloc_sim.create k p in
      {
        Wl.Churn.h_malloc = (fun ~bytes -> Heap.Malloc_sim.malloc h ~bytes);
        h_free = (fun va -> Heap.Malloc_sim.free h va);
        h_touch =
          (fun ~va ~bytes -> Bench_env.touch_pages_kernel k p ~va ~len:(max 1 bytes) ~write:true);
      }
    | `Fom ->
      let fom = O1mem.Fom.create k () in
      let p = K.create_process k () in
      let h = Heap.Fom_heap.create fom p () in
      {
        Wl.Churn.h_malloc = (fun ~bytes -> Heap.Fom_heap.malloc h ~bytes);
        h_free = (fun va -> Heap.Fom_heap.free h va);
        h_touch =
          (fun ~va ~bytes -> Bench_env.touch_pages_fom fom p ~va ~len:(max 1 bytes) ~write:true);
      }
  in
  let profile = Sim.Profile.create ~clock:(K.clock k) ~now_ns ~rss_kb:read_rss_kb () in
  Sim.Trace.attach_profile (K.trace k) profile;
  let w = instrument k profile in
  ignore
    (Wl.Churn.run trace
       {
         Wl.Churn.h_malloc = (fun ~bytes -> w.op "malloc" (fun () -> d.h_malloc ~bytes));
         h_free = (fun va -> w.op "free" (fun () -> d.h_free va));
         h_touch = (fun ~va ~bytes -> w.op "touch" (fun () -> d.h_touch ~va ~bytes));
       });
  (k, profile)

let run_churn ?(ops = default_ops) backend =
  drive ~ops backend ~instrument:(fun k _ ->
      Sim.Stats.set_sample_interval (K.stats k) ~cycles:sample_interval_cycles;
      bare)

(* Deterministic export for the bench JSON: attribution summary, full
   call tree, and the gauge registry after the profiled churn_fom run. *)
let to_json ?(ops = default_ops) () =
  let k, profile = run_churn ~ops `Fom in
  Sim.Json.Obj
    [
      ("workload", Sim.Json.String "churn_fom");
      ("ops", Sim.Json.Int ops);
      ("profile", Sim.Profile.to_json profile);
      ("gauges", Sim.Stats.gauges_to_json (K.stats k));
    ]

let run ?(ops = default_ops) () =
  Bench_env.print_header "P1"
    "Cycle attribution for the churn workload: call tree over the virtual clock.";
  List.iter
    (fun (name, backend) ->
      let _, profile = run_churn ~ops backend in
      Printf.printf "--- churn_%s (%d ops) ---\n" name ops;
      Format.printf "%a@." Sim.Profile.pp profile)
    [ ("malloc", `Malloc); ("fom", `Fom) ]
