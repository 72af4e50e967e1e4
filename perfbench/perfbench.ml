(* The repository benchmark. One closed-loop, single-threaded client
   replays seed-generated inputs against the simulator, timing every op
   from outside in both clocks (host ns and virtual cycles) and checking
   every output.

     perfbench.exe --workload churn_malloc|churn_fom|kv_zipf --seed N
                   --seconds S --trace 0|1

   The process repeats whole rounds (fresh machine, setup, loop, checks,
   teardown) while one more round still fits in S seconds. [--trace 1]
   alternates untraced and traced rounds and reports per-layer metrics;
   [--trace 0] reports end-to-end metrics. The last line of stdout is
   one JSON object. run.py builds and runs this; see README.md. *)

module M = Measure

let workloads = [ "churn_malloc"; "churn_fom"; "kv_zipf" ]

let run_round workload ~seed ~traced =
  match workload with
  | "churn_malloc" -> Churn_bench.run_round Churn_bench.Malloc ~seed ~traced
  | "churn_fom" -> Churn_bench.run_round Churn_bench.Fom ~seed ~traced
  | _ -> Kv_bench.run_round ~seed ~traced

(* A digest of the generated inputs, so a test can tell that a different
   seed changed them. *)
let input_digest workload ~seed =
  Digest.to_hex
    (Digest.string
       (match workload with
       | "kv_zipf" ->
         Marshal.to_string (Kv_bench.generate ~seed ~requests:Kv_bench.requests_per_round) []
       | _ -> Marshal.to_string (Churn_bench.generate ~seed ~steps:Churn_bench.steps_per_round) []))

let ops_per_s (r : M.round) =
  float_of_int r.M.attempted /. (float_of_int (Array.fold_left ( + ) 0 r.M.op_ns) /. 1e9)

let counter (r : M.round) name = try List.assoc name r.M.counters with Not_found -> 0

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let mi name unit_ value = m name unit_ (float_of_int value)

(* Host speed of the untraced rounds. On a shared machine it drifts by
   up to a quarter between runs minutes apart, so it is reported with the
   per-layer metrics, which are not gated; medians over rounds keep one
   disturbed round from moving it. *)
let host_speed untraced =
  let us p =
    Sim.Regress.median
      (List.map (fun r -> float_of_int (M.percentile (M.sorted_copy r.M.op_ns) p) /. 1e3) untraced)
  in
  [
    m "sim.host_ops_per_s" "1/s" (Sim.Regress.median (List.map ops_per_s untraced));
    m "sim.host_op_us_p50" "us" (us 50.);
    m "sim.host_op_us_p99" "us" (us 99.);
  ]

let end_to_end ~untraced ~setups ~heap_words =
  let r0 = List.hd untraced in
  let ops = float_of_int r0.M.attempted in
  [
    m "sim_cycles_per_op" "cycles" (float_of_int (Array.fold_left ( + ) 0 r0.M.op_cycles) /. ops);
    mi "sim_op_cycles_p99" "cycles" (M.percentile (M.sorted_copy r0.M.op_cycles) 99.);
    m "host_words_per_op" "words" (float_of_int r0.M.words /. ops);
    m "host_heap_peak_mib" "MiB" (float_of_int (heap_words * (Sys.word_size / 8)) /. 1048576.);
    m "setup_s" "s" (List.fold_left Float.min Float.infinity setups);
    m "ok_op_ratio" "ratio" ((ops -. float_of_int r0.M.failed) /. ops);
    mi "frames_leaked" "frames" r0.M.frames_leaked;
  ]

let span_names =
  [
    "heap.malloc";
    "heap.free";
    "vm.access_range";
    "fom.access_range";
    "store.get";
    "store.commit";
    "fom.recover";
  ]

(* Per-layer metrics: spans pooled over every traced round for host ns;
   counts and cycles from the first traced round (all rounds agree). *)
let per_layer ~untraced ~traced =
  let t0 = List.hd traced in
  let tr = Option.get t0.M.trace in
  let spans name =
    List.filter_map
      (fun r ->
        Option.bind r.M.trace (fun t -> List.find_opt (fun s -> s.M.name = name) t.M.spans))
      traced
  in
  (* A span this workload never calls has no buffers and reports zeros. *)
  let span_metrics name =
    let all = spans name in
    let first f = match all with s :: _ -> f s | [] -> 0 in
    let sum a (s : M.span) = Array.fold_left ( + ) 0 (Array.sub a 0 s.M.n) in
    let ns = M.sorted_copy (Array.concat (List.map (fun s -> Array.sub s.M.ns 0 s.M.n) all)) in
    [
      mi (name ^ ".calls") "count" (first (fun s -> s.M.n));
      mi (name ^ ".host_ns_p50") "ns" (M.percentile ns 50.);
      mi (name ^ ".host_ns_p99") "ns" (M.percentile ns 99.);
      mi (name ^ ".host_ns_total") "ns" (first (fun s -> sum s.M.ns s));
      mi (name ^ ".sim_cycles") "cycles" (first (fun s -> sum s.M.cycles s));
    ]
  in
  let c = counter t0 in
  List.concat_map span_metrics span_names
  @ [
      mi "heap.footprint_peak_bytes" "bytes" tr.M.footprint_peak;
      mi "vm.page_faults" "count" (c "page_fault");
      mi "vm.syscalls" "count" (c "syscall");
      mi "vm.vma_setups" "count" (c "vma_setup");
      mi "vm.struct_page_updates" "count" (c "struct_page_update");
      mi "vm.reclaim_retries" "count" (c "alloc_retry_reclaim");
      mi "fom.masters_built" "count" (c "fom_master_built");
      mi "fom.grafts" "count" (c "fom_grafts");
      mi "fom.unmaps" "count" (c "fom_unmap");
      m "mmu.tlb_hit_ratio" "ratio" (ratio (c "tlb_hit") (c "tlb_miss"));
      mi "mmu.page_walks" "count" (c "page_walks");
      mi "mmu.walk_refs" "count" (c "walk_refs");
      mi "mmu.pte_writes" "count" (c "pte_write");
      mi "mmu.pte_clears" "count" (c "pte_clear");
      mi "mmu.tlb_shootdowns" "count" (c "tlb_shootdown");
      mi "mmu.tlb_flushes" "count" (c "tlb_flush");
      mi "mmu.pt_node_allocs" "count" (c "pt_node_alloc");
      mi "mmu.pt_node_frees" "count" (c "pt_node_free");
      mi "physmem.dram_lines" "count" (c "dram_read" + c "dram_write");
      mi "physmem.nvm_lines" "count" (c "nvm_read" + c "nvm_write");
      mi "physmem.bytes_zeroed" "bytes" (c "bytes_zeroed");
      mi "physmem.clwb" "count" (c "clwb");
      mi "physmem.sfence" "count" (c "sfence");
      mi "physmem.resident_frames_peak" "frames" tr.M.resident_frames_peak;
      m "alloc.zero_cache_hit_ratio" "ratio" (ratio (c "zero_cache_hit") (c "zero_cache_miss"));
      mi "alloc.buddy_splits" "count" (c "buddy_split");
      mi "alloc.buddy_merges" "count" (c "buddy_merge");
      mi "alloc.free_frames_min" "frames" tr.M.free_frames_min;
      mi "fom.master_frames_held" "frames" (c "master_frames_held");
      mi "memfs.creates" "count" (c "fs_create");
      mi "memfs.extends" "count" (c "fs_extend");
      mi "memfs.reaps" "count" tr.M.files_reaped;
      mi "memfs.wal_bytes_peak" "bytes" (c "hwm.store_wal_bytes");
      mi "store.checkpoints" "count" (c "store_checkpoint");
      mi "store.commit_aborts" "count" (c "store_commit_abort");
      mi "store.eio" "count" (c "store_eio");
      mi "store.replayed_records" "count" (c "store.replayed");
      m "sim.trace_overhead" "ratio"
        (Sim.Regress.median (List.map ops_per_s traced)
        /. Sim.Regress.median (List.map ops_per_s untraced));
    ]
  @ host_speed untraced

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " churn_malloc | churn_fom | kv_zipf");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measure for about this long (whole rounds)");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  let traced_run = !trace = 1 in
  let min_rounds = if traced_run then 2 else 1 in
  let start = M.now_ns () in
  let elapsed () = float_of_int (M.now_ns () - start) /. 1e9 in
  (* A round starts only if one more, as long as the last, still fits.
     The heap peak is taken after the first round, so it does not depend
     on how many rounds fit. *)
  let results = ref [] and n = ref 0 and last = ref 0. and heap_words = ref 0 in
  while !n < min_rounds || elapsed () +. !last <= !seconds do
    let t0 = elapsed () in
    let traced = traced_run && !n mod 2 = 1 in
    results := (traced, run_round !workload ~seed:!seed ~traced) :: !results;
    last := elapsed () -. t0;
    if !n = 0 then heap_words := (Gc.quick_stat ()).Gc.top_heap_words;
    incr n
  done;
  let results = List.rev !results in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) results in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) results in
  let all = List.map snd results in
  let r0 = List.hd all in
  (* Every round replays the same inputs: all deterministic values must
     repeat, traced or not. Words are not compared here: OCaml 5.1's GC
     counters drift by up to a few percent between identical rounds of one
     process, though the first round of a fresh process repeats exactly
     (selftest.py checks that across processes). *)
  let deterministic = List.for_all (fun r -> M.signature r = M.signature r0) all in
  if not deterministic then prerr_endline "perfbench: rounds disagree on deterministic values";
  List.iter (fun r -> List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) r.M.errors) all;
  let failed = List.fold_left (fun a r -> a + r.M.failed) 0 all in
  let attempted = List.fold_left (fun a r -> a + r.M.attempted) 0 all in
  let metrics =
    if traced_run then per_layer ~untraced ~traced
    else
      end_to_end ~untraced ~setups:(List.concat_map (fun r -> r.M.setup_s) all) ~heap_words:!heap_words
  in
  Printf.printf "workload %s  seed %d  rounds %d (%d traced)  input digest %s\n" !workload !seed
    (List.length all) (List.length traced)
    (input_digest !workload ~seed:!seed);
  List.iteri
    (fun i (t, r) ->
      Printf.printf "  round %d%s: setup %s s, %.0f ops/s\n" i
        (if t then " (traced)" else "")
        (String.concat " " (List.map (Printf.sprintf "%.4f") r.M.setup_s))
        (ops_per_s r))
    results;
  List.iter (fun x -> Printf.printf "  %-34s %20s %s\n" x.name (json_number x.value) x.unit_) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (deterministic && failed = 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name (json_number x.value)
              x.unit_)
          metrics))
