(* Shared fixtures for the test suite. *)

let mk_clock () = Sim.Clock.create Sim.Cost_model.default

let mk_env () =
  let clock = mk_clock () in
  let stats = Sim.Stats.create () in
  (clock, stats)

let mk_mem ?(dram = Sim.Units.mib 64) ?(nvm = Sim.Units.mib 64) () =
  let clock, stats = mk_env () in
  Physmem.Phys_mem.create ~clock ~stats ~dram_bytes:dram ~nvm_bytes:nvm ()

let small_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 64;
    nvm_bytes = Sim.Units.mib 64;
  }

let mk_kernel ?(config = small_config) () = Os.Kernel.create ~config ()

let mk_fom ?config ?strategy () =
  let kernel = mk_kernel ?config () in
  let fom = O1mem.Fom.create kernel ?strategy () in
  (kernel, fom)

(* A page table whose node frames come from a trivial bump counter —
   enough for pure MMU tests that never touch the frames. *)
let mk_page_table ?(levels = 4) () =
  let clock, stats = mk_env () in
  let next = ref 0 in
  let alloc_frame () =
    incr next;
    !next
  in
  (Hw.Page_table.create ~clock ~stats ~levels ~alloc_frame, clock, stats)

(* Words allocated so far, exactly: minor + major - promoted, so a block
   promoted out of the minor heap is counted once. Unlike [Gc.counters]
   alone, [Gc.minor_words] includes the young allocation since the last
   minor collection, so readings do not depend on GC timing. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Words [f] allocates per call, averaged over [n] calls, with the
   meter's own allocation subtracted. *)
let words_per_call ?(n = 1000) f =
  let bias =
    let w0 = words () in
    words () -. w0
  in
  let w0 = words () in
  for _ = 1 to n do
    f ()
  done;
  (words () -. w0 -. bias) /. float_of_int n

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

(* A deterministic fake host clock: each read advances by [step] ns. *)
let fake_ns ?(step = 10) () =
  let t = ref 0 in
  fun () ->
    t := !t + step;
    !t

let mk_profile ?step ?rss_kb ?events_capacity clock =
  Sim.Profile.create ~clock ~now_ns:(fake_ns ?step ()) ?rss_kb ?events_capacity ()
