(* Command-line front end for the o1mem simulator.

   o1mem_cli experiments [-o GROUP]   regenerate the paper's tables/figures
   o1mem_cli study ...                run the FS-utilization fleet model
   o1mem_cli walkrefs ...             translation reference counts
   o1mem_cli simulate ...             one-off alloc+touch measurement
   o1mem_cli metrics ...              run the traced workload, print JSON
   o1mem_cli faults ...               fault injection, crash explorers
   o1mem_cli store ...                persistent store crash/recovery demo *)

open Cmdliner

(* ------------------------- experiments ---------------------------- *)

let groups =
  [
    ("mapping", Experiments.Exp_mapping.run);
    ("alloc", Experiments.Exp_alloc.run);
    ("sharing", Experiments.Exp_sharing.run);
    ("range", Experiments.Exp_range.run);
    ("os", Experiments.Exp_os.run);
    ("ablation", Experiments.Exp_ablation.run);
    ("complexity", Experiments.Exp_complexity.run);
  ]

let experiments only =
  Format.printf "%a@." Sim.Cost_model.pp Sim.Cost_model.default;
  let selected =
    match only with
    | [] -> groups
    | names ->
      List.filter_map
        (fun n ->
          match List.assoc_opt n groups with
          | Some f -> Some (n, f)
          | None ->
            Printf.eprintf "unknown group %S (have: %s)\n" n
              (String.concat ", " (List.map fst groups));
            None)
        names
  in
  List.iter (fun (_, f) -> f ()) selected

let only_arg =
  let doc =
    "Run only this experiment group (mapping, alloc, sharing, range, os, ablation, complexity); \
     repeatable."
  in
  Arg.(value & opt_all string [] & info [ "o"; "only" ] ~docv:"GROUP" ~doc)

let experiments_cmd =
  let doc = "Regenerate the paper's tables and figures (simulated time)" in
  Cmd.v (Cmd.info "experiments" ~doc) Term.(const experiments $ only_arg)

(* ----------------------------- study ------------------------------ *)

let study machines years growth seed =
  let params =
    {
      Wl.Fs_study.default_params with
      Wl.Fs_study.machines;
      years;
      annual_data_growth = growth;
    }
  in
  let r = Wl.Fs_study.run ~rng:(Sim.Rng.create ~seed) params in
  Printf.printf "fleet: %d machines, %d years, +%.0f%%/year data growth\n" machines years
    (100.0 *. growth);
  Printf.printf "mean utilization:   %.3f\n" r.Wl.Fs_study.mean_utilization;
  Printf.printf "median utilization: %.3f\n" r.Wl.Fs_study.median_utilization;
  Printf.printf "fraction below 50%%: %.3f  (%d samples)\n" r.Wl.Fs_study.fraction_below_half
    r.Wl.Fs_study.samples

let study_cmd =
  let doc = "Run the Agrawal-style file-system utilization fleet model (E11)" in
  let machines = Arg.(value & opt int 500 & info [ "machines" ] ~doc:"Fleet size.") in
  let years = Arg.(value & opt int 5 & info [ "years" ] ~doc:"Simulated years.") in
  let growth = Arg.(value & opt float 0.45 & info [ "growth" ] ~doc:"Annual data growth.") in
  let seed = Arg.(value & opt int 2017 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "study" ~doc) Term.(const study $ machines $ years $ growth $ seed)

(* --------------------------- walkrefs ------------------------------ *)

let walkrefs levels nested =
  let mode = match nested with None -> Hw.Walker.Native | Some h -> Hw.Walker.Virtualized h in
  List.iter
    (fun (label, size) ->
      let depth = levels - 1 - Hw.Page_size.depth_above_leaf size in
      Printf.printf "%-8s leaf: %2d memory references per TLB miss\n" label
        (Hw.Walker.refs_for_walk ~guest_levels:levels ~leaf_depth:depth ~mode))
    [ ("4K", Hw.Page_size.Small); ("2M", Hw.Page_size.Huge_2m); ("1G", Hw.Page_size.Huge_1g) ]

let walkrefs_cmd =
  let doc = "Print translation reference counts for a paging configuration (E10)" in
  let levels =
    Arg.(value & opt int 4 & info [ "levels" ] ~doc:"Page-table levels (4 or 5).")
  in
  let nested =
    Arg.(value & opt (some int) None & info [ "nested" ] ~doc:"Host levels when virtualized.")
  in
  Cmd.v (Cmd.info "walkrefs" ~doc) Term.(const walkrefs $ levels $ nested)

(* --------------------------- simulate ------------------------------ *)

let simulate size_mb strategy_name touch cores =
  let strategy =
    match strategy_name with
    | "per-page" -> O1mem.Fom.Per_page
    | "huge" -> O1mem.Fom.Huge_pages
    | "subtree" -> O1mem.Fom.Shared_subtree
    | "range" -> O1mem.Fom.Range_translation
    | s -> failwith ("unknown strategy: " ^ s ^ " (per-page|huge|subtree|range)")
  in
  let k = Experiments.Bench_env.kernel ~nvm:(Sim.Units.gib 4) ~cores () in
  let fom = O1mem.Fom.create k ~strategy () in
  let p = Os.Kernel.create_process k ~range_translations:(strategy = O1mem.Fom.Range_translation) () in
  let len = Sim.Units.mib size_mb in
  let t_alloc =
    Experiments.Bench_env.time_us k (fun () ->
        ignore (O1mem.Fom.alloc fom p ~name:"/sim" ~len ~prot:Hw.Prot.rw ()))
  in
  Printf.printf "alloc+map %s via %s: %.2f us\n" (Sim.Units.bytes_to_string len) strategy_name
    t_alloc;
  if touch then begin
    let r = Option.get (O1mem.Fom.region_of fom p ~va:(O1mem.Fom.map_path fom p "/sim").O1mem.Fom.va) in
    let t_touch =
      Experiments.Bench_env.time_us k (fun () ->
          Experiments.Bench_env.touch_pages_fom fom p ~va:r.O1mem.Fom.va ~len ~write:true)
    in
    Printf.printf "touch every page: %.2f us\n" t_touch;
    (* On an SMP machine, migrate after the touch and unmap from the new
       core: the teardown's shootdown is now a real cross-core IPI round. *)
    if cores > 1 then begin
      Os.Kernel.migrate k p ~core:((p.Os.Proc.core + 1) mod cores);
      let t_unmap =
        Experiments.Bench_env.time_us k (fun () -> O1mem.Fom.free fom p r)
      in
      Printf.printf "cross-core unmap (core %d, %d cores): %.2f us\n" p.Os.Proc.core cores
        t_unmap
    end
  end;
  let stats = Os.Kernel.stats k in
  List.iter
    (fun key ->
      let v = Sim.Stats.get stats key in
      if v > 0 then Printf.printf "  %-20s %d\n" key v)
    [
      "pte_write"; "fom_grafts"; "range_table_op"; "page_fault"; "tlb_miss"; "fs_extend";
      "migration"; "ipi_sent"; "ipi_acked"; "tlb_shootdown";
    ]

let simulate_cmd =
  let doc = "Allocate and map a region under a chosen strategy and report costs" in
  let size = Arg.(value & opt int 64 & info [ "size" ] ~doc:"Region size in MiB.") in
  let strategy =
    Arg.(value & opt string "subtree" & info [ "strategy" ] ~doc:"per-page|huge|subtree|range.")
  in
  let touch = Arg.(value & flag & info [ "touch" ] ~doc:"Also touch every page.") in
  let cores =
    Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Simulated cores (per-core TLBs, IPI shootdowns).")
  in
  Cmd.v (Cmd.info "simulate" ~doc) Term.(const simulate $ size $ strategy $ touch $ cores)

(* ---------------------------- metrics ------------------------------ *)

let metrics events_limit compact =
  let json = Experiments.Exp_metrics.run_to_json ~events_limit () in
  print_string (Sim.Json.to_string ~pretty:(not compact) json);
  print_newline ()

let metrics_cmd =
  let doc =
    "Run a deterministic workload over every instrumented subsystem and print the collected \
     stats and per-operation latency histograms as JSON"
  in
  let events_limit =
    Arg.(
      value & opt int 64
      & info [ "events" ] ~docv:"N" ~doc:"Include at most $(docv) raw trace events (newest first).")
  in
  let compact = Arg.(value & flag & info [ "compact" ] ~doc:"Single-line JSON output.") in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const metrics $ events_limit $ compact)

(* ---------------------------- profile ------------------------------ *)

let profile_backend_of = function
  | "malloc" -> `Malloc
  | "fom" -> `Fom
  | other -> failwith ("unknown backend: " ^ other ^ " (malloc|fom)")

let profile backend ops format =
  let _, p = Experiments.Exp_profile.run_churn ~ops (profile_backend_of backend) in
  match format with
  | "tree" -> Format.printf "%a@." Sim.Profile.pp p
  | "chrome" ->
    print_string (Sim.Json.to_string ~pretty:true (Sim.Profile.to_chrome_json p));
    print_newline ()
  | "collapsed" -> print_string (Sim.Profile.to_collapsed p)
  | other -> failwith ("unknown format: " ^ other ^ " (tree|chrome|collapsed)")

let profile_cmd =
  let doc =
    "Replay the churn workload with the cycle-attribution profiler attached and print the call \
     tree, a Chrome trace-event JSON (load in chrome://tracing or Perfetto), or collapsed stacks \
     (pipe into flamegraph.pl or speedscope)"
  in
  let backend = Arg.(value & opt string "fom" & info [ "backend" ] ~doc:"malloc|fom.") in
  let ops = Arg.(value & opt int 400 & info [ "ops" ] ~doc:"Operations in the trace.") in
  let format =
    Arg.(value & opt string "tree" & info [ "format" ] ~docv:"FMT" ~doc:"tree|chrome|collapsed.")
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const profile $ backend $ ops $ format)

(* ------------------------------ top -------------------------------- *)

(* procfs-style rollup after a profiled churn run: per-process memory,
   machine gauges, and the hottest spans by self cycles. *)
let top backend ops k_spans =
  let k, p = Experiments.Exp_profile.run_churn ~ops (profile_backend_of backend) in
  let procs =
    Hashtbl.fold (fun _ pr acc -> pr :: acc) (Os.Kernel.processes k) []
    |> List.sort (fun a b -> compare a.Os.Proc.pid b.Os.Proc.pid)
  in
  Printf.printf "%-6s %-10s %-10s %-10s %s\n" "PID" "RSS" "PSS" "PT" "VMAS";
  List.iter
    (fun pr ->
      Printf.printf "%-6d %-10s %-10s %-10s %d\n" pr.Os.Proc.pid
        (Sim.Units.bytes_to_string (Os.Procfs.rss_pages pr * Sim.Units.page_size))
        (Sim.Units.bytes_to_string
           (int_of_float
              (Float.round (Os.Procfs.pss_pages k pr *. float_of_int Sim.Units.page_size))))
        (Sim.Units.bytes_to_string (Os.Procfs.pt_bytes pr))
        (Os.Address_space.vma_count pr.Os.Proc.aspace))
    procs;
  print_newline ();
  Printf.printf "%-6s %-6s %12s %10s %10s %10s\n" "CORE" "NODE" "BUSY" "IPI_SENT" "IPI_RCVD" "IPI_ACKED";
  Hw.Smp.iter_cores (Os.Kernel.smp k) (fun c ->
      Printf.printf "%-6d %-6d %12d %10d %10d %10d\n" c.Hw.Smp.id c.Hw.Smp.numa_node
        c.Hw.Smp.busy_cycles c.Hw.Smp.ipi_sent c.Hw.Smp.ipi_received c.Hw.Smp.ipi_acked);
  print_newline ();
  Printf.printf "%-24s %10s %10s\n" "GAUGE" "VALUE" "HWM";
  List.iter
    (fun (name, v, hwm) -> Printf.printf "%-24s %10d %10d\n" name v hwm)
    (Sim.Stats.gauges (Os.Kernel.stats k));
  print_newline ();
  Printf.printf "%-40s %10s %12s %12s\n" "SPAN" "CALLS" "SELF" "CUM";
  List.iter
    (fun (path, (n : Sim.Profile.node)) ->
      Printf.printf "%-40s %10d %12d %12d\n" path n.calls n.self n.cum)
    (Sim.Profile.top_spans ~k:k_spans p);
  Printf.printf "\n%d/%d cycles attributed (%.1f%%), %d unattributed\n"
    (Sim.Profile.attributed p) (Sim.Profile.total p)
    (100.0 *. Sim.Profile.attributed_fraction p)
    (Sim.Profile.unattributed p)

let top_cmd =
  let doc =
    "Run the churn workload and print a procfs-style rollup: per-process RSS/PSS/page-table \
     bytes, machine gauges with high watermarks, and the top spans by self cycles"
  in
  let backend = Arg.(value & opt string "fom" & info [ "backend" ] ~doc:"malloc|fom.") in
  let ops = Arg.(value & opt int 400 & info [ "ops" ] ~doc:"Operations in the trace.") in
  let k_spans = Arg.(value & opt int 10 & info [ "spans" ] ~doc:"Spans to show.") in
  Cmd.v (Cmd.info "top" ~doc) Term.(const top $ backend $ ops $ k_spans)

(* ---------------------------- timeline ----------------------------- *)

let timeline compact =
  print_string (Sim.Json.to_string ~pretty:(not compact) (Experiments.Exp_causal.timeline_json ()));
  print_newline ()

let timeline_cmd =
  let doc =
    "Run the 4-core migration workload with the causal plane attached and print a Chrome \
     trace-event JSON: per-core slices, causal flow arrows (IPI/migrate/sched/NUMA/reclaim), \
     and sampled per-core busy counters. Load the output in chrome://tracing or \
     https://ui.perfetto.dev"
  in
  let compact = Arg.(value & flag & info [ "compact" ] ~doc:"Single-line JSON output.") in
  Cmd.v (Cmd.info "timeline" ~doc) Term.(const timeline $ compact)

(* -------------------------- critical-path -------------------------- *)

(* Exit codes: 0 = the causal engine attributes >= 95% of the makespan
   and both hop-count sweeps land on their expected class, 1 = either
   gate failed. *)
let critical_path () =
  Experiments.Exp_causal.run ();
  let ok = ref true in
  (match Sim.Json.member (Experiments.Exp_causal.to_json ()) "attributed" with
  | Some (Sim.Json.Bool true) -> ()
  | _ ->
    Printf.eprintf "critical-path: < 95%% of makespan cycles attributed to named shares\n";
    ok := false);
  (match Sim.Json.member (Experiments.Exp_causal.to_json ()) "sweeps" with
  | Some (Sim.Json.Obj sweeps) ->
    List.iter
      (fun (name, s) ->
        match Sim.Json.member s "match" with
        | Some (Sim.Json.Bool true) -> ()
        | _ ->
          Printf.eprintf "critical-path: sweep %s off its expected complexity class\n" name;
          ok := false)
      sweeps
  | _ ->
    Printf.eprintf "critical-path: no sweeps in the causal export\n";
    ok := false);
  if not !ok then exit 1

let critical_path_cmd =
  let doc =
    "Decompose the 4-core migration workload's makespan into work / IPI-wait / scheduler / \
     remote-NUMA shares via the causal graph, report the longest dependent chain, and \
     machine-check that a batched shootdown's critical path stays O(1) in batch size while the \
     per-page path grows O(pages); exits non-zero if attribution falls below 95% or a sweep \
     misses its class"
  in
  Cmd.v (Cmd.info "critical-path" ~doc) Term.(const critical_path $ const ())

(* ----------------------------- faults ------------------------------ *)

(* Exit codes: 0 = survived (explorers consistent, plan behaved as its
   contract says), 1 = an invariant was violated — or a plan that is
   *supposed* to break TLB coherence failed to surface any violation,
   which would mean the checker has gone blind. *)
let faults seed plan rounds explore =
  let failed = ref false in
  if explore then begin
    let report label (r : O1mem.Chaos.explorer_report) =
      Printf.printf "%-4s explorer: %d durable steps (%d fences), %d crashes, %d violations\n"
        label r.O1mem.Chaos.steps r.O1mem.Chaos.fences r.O1mem.Chaos.crashes
        (List.length r.O1mem.Chaos.violations);
      List.iter (fun v -> Printf.printf "    VIOLATION %s\n" v) r.O1mem.Chaos.violations;
      if r.O1mem.Chaos.violations <> [] || r.O1mem.Chaos.steps = 0 then failed := true
    in
    report "wal" (O1mem.Chaos.explore_wal ~seed ());
    report "fs" (O1mem.Chaos.explore_fs ~seed ());
    let s = Store.Chaos.explore_store ~seed () in
    Printf.printf
      "store explorer: %d durable steps (%d fences), %d crashes, %d torn + %d flip detections, %d \
       violations\n"
      s.Store.Chaos.steps s.Store.Chaos.fences s.Store.Chaos.crashes s.Store.Chaos.torn_detections
      s.Store.Chaos.flip_detections
      (List.length s.Store.Chaos.violations);
    List.iter (fun v -> Printf.printf "    VIOLATION %s\n" v) s.Store.Chaos.violations;
    if
      s.Store.Chaos.violations <> [] || s.Store.Chaos.steps = 0
      || s.Store.Chaos.torn_detections = 0 || s.Store.Chaos.flip_detections = 0
    then failed := true;
    print_newline ()
  end;
  let outcomes =
    let run p =
      if p = "store" then Store.Chaos.run_plan ~seed ~rounds ()
      else O1mem.Chaos.run_plan ~seed ~rounds ~plan:p ()
    in
    match plan with
    | "each" -> List.map run (O1mem.Chaos.plans @ [ "store" ])
    | p -> (
      try [ run p ]
      with Invalid_argument msg ->
        Printf.eprintf "o1mem_cli faults: %s\n" msg;
        exit 2)
  in
  List.iter
    (fun (o : O1mem.Chaos.plan_outcome) ->
      Printf.printf "plan %-6s seed %d: %d injected over %d rounds\n" o.O1mem.Chaos.plan
        o.O1mem.Chaos.seed o.O1mem.Chaos.injected_total rounds;
      List.iter
        (fun (site, evals, injected) ->
          if evals > 0 then Printf.printf "  %-20s %6d evaluated %6d injected\n" site evals injected)
        o.O1mem.Chaos.sites;
      Printf.printf
        "  degradation: %d ENOMEM, %d ENOSPC, %d reclaim retries (%d frames), %d OOMs\n"
        o.O1mem.Chaos.enomem o.O1mem.Chaos.enospc o.O1mem.Chaos.retried
        o.O1mem.Chaos.reclaimed_frames o.O1mem.Chaos.ooms;
      let expects = O1mem.Chaos.plan_expects_violations o.O1mem.Chaos.plan in
      (match (o.O1mem.Chaos.checks, expects) with
      | [], false -> Printf.printf "  invariants: all hold\n"
      | [], true ->
        Printf.printf "  invariants: EXPECTED violations, found none — checker blind?\n";
        failed := true
      | vs, true ->
        Printf.printf "  invariants: %d violations (expected — lost shootdowns detected)\n"
          (List.length vs)
      | vs, false ->
        Printf.printf "  invariants: %d UNEXPECTED violations\n" (List.length vs);
        List.iter (fun v -> Printf.printf "    %s\n" (Os.Check.violation_to_string v)) vs;
        failed := true))
    outcomes;
  if !failed then exit 1

let faults_cmd =
  let doc =
    "Run the fault-injection plane: optional crash-at-every-step explorers (WAL and FOM \
     file-system recovery) plus a named sustained-pressure plan, printing injected-site counts, \
     typed degradation outcomes, and the cross-layer invariant verdict"
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic injection seed.") in
  let plan =
    Arg.(
      value & opt string "all"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:"alloc|nvm|quota|tlb|all|store, or 'each' to run every plan.")
  in
  let rounds = Arg.(value & opt int 16 & info [ "rounds" ] ~doc:"Workload rounds per plan.") in
  let explore =
    Arg.(value & flag & info [ "explore" ] ~doc:"Also run the crash-at-every-step explorers.")
  in
  Cmd.v (Cmd.info "faults" ~doc) Term.(const faults $ seed $ plan $ rounds $ explore)

(* ------------------------------ store ------------------------------ *)

(* End-to-end demonstration of the persistent object store: populate,
   lose power with a transaction in flight, recover through the FOM
   recovery hooks, and print what came back. Exit 1 if the recovered
   store is unusable: a committed object lost, a verify or Os.Check
   violation, or a probe write that does not read back. *)
let store keys txns seed =
  let k = Experiments.Bench_env.kernel ~dram:(Sim.Units.mib 32) ~nvm:(Sim.Units.mib 32) () in
  let fom = O1mem.Fom.create k () in
  let p = Os.Kernel.create_process k () in
  let st = Store.Kv.create fom p ~name:"/cli" () in
  let key i = Printf.sprintf "key%03d" i in
  let rng = Sim.Rng.create ~seed in
  ignore (Store.Kv.begin_txn st);
  for i = 1 to keys do
    Store.Kv.put st (key i) (String.make (48 + (i mod 64)) 'a')
  done;
  Store.Kv.set_root st "head" (key 1);
  Store.Kv.commit st;
  Store.Kv.checkpoint st;
  for c = 1 to txns do
    ignore (Store.Kv.begin_txn st);
    for _ = 1 to 3 do
      let i = 1 + Sim.Rng.zipf rng ~n:keys ~theta:0.99 in
      Store.Kv.put st (key i) (String.make (48 + (c mod 64)) (Char.chr (Char.code 'a' + (c mod 26))))
    done;
    Store.Kv.commit st
  done;
  ignore (Store.Kv.begin_txn st);
  Store.Kv.put st (key 1) (String.make 64 'z');
  Printf.printf "store %s: %d objects, %d roots, generation %d, %d WAL records before crash\n"
    (Store.Kv.name st) (Store.Kv.object_count st)
    (List.length (Store.Kv.roots st))
    (Store.Kv.generation st) (Store.Kv.wal_record_count st);
  let report = O1mem.Persistence.crash_and_recover fom in
  Printf.printf "crash with a transaction in flight; recovery: %d cycles charged\n"
    report.O1mem.Persistence.recovery_cycles;
  List.iter
    (fun (h, n) -> Printf.printf "  hook %-12s replayed %d committed record(s)\n" h n)
    report.O1mem.Persistence.hook_records;
  Printf.printf
    "recovered: %d objects, %d roots, generation %d, %d WAL records, %d truncated tails\n"
    (Store.Kv.object_count st)
    (List.length (Store.Kv.roots st))
    (Store.Kv.generation st) (Store.Kv.wal_record_count st)
    (Store.Kv.recovery_truncations st);
  let failed = ref false in
  if Store.Kv.object_count st < keys then begin
    Printf.printf "LOST OBJECTS: %d of %d survive\n" (Store.Kv.object_count st) keys;
    failed := true
  end;
  (match Store.Kv.verify st with
  | [] -> Printf.printf "verify: every root and object checks out\n"
  | vs ->
    List.iter (fun v -> Printf.printf "VIOLATION %s\n" (Os.Check.violation_to_string v)) vs;
    failed := true);
  (match Os.Check.run k with
  | [] -> ()
  | vs ->
    List.iter (fun v -> Printf.printf "VIOLATION %s\n" (Os.Check.violation_to_string v)) vs;
    failed := true);
  ignore (Store.Kv.begin_txn st);
  Store.Kv.put st "probe" "usable";
  Store.Kv.commit st;
  if Store.Kv.get st "probe" <> Some "usable" then begin
    Printf.printf "UNUSABLE: post-recovery probe write does not read back\n";
    failed := true
  end
  else Printf.printf "post-recovery probe write reads back: store is usable\n";
  Store.Kv.detach st;
  if !failed then exit 1

let store_cmd =
  let doc =
    "Run the crash-consistent persistent object store end to end: populate it, cut power with a \
     transaction in flight, recover through the FOM recovery hooks, and verify every root, \
     checksum and invariant; exits non-zero if any committed state was lost or the recovered \
     store is unusable"
  in
  let keys = Arg.(value & opt int 48 & info [ "keys" ] ~doc:"Objects to preload.") in
  let txns = Arg.(value & opt int 6 & info [ "txns" ] ~doc:"Update transactions before the crash.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic workload seed.") in
  Cmd.v (Cmd.info "store" ~doc) Term.(const store $ keys $ txns $ seed)

(* ---------------------------- hotspots ----------------------------- *)

(* What the HOST pays to simulate: replay the churn workload with the
   profiler attached and rank call-tree paths by self host-ns and by self
   allocated words. The ns numbers are real wall-clock (noisy); the words
   and call counts are deterministic per binary. *)
let hotspots_by_of = function
  | "ns" -> `Ns
  | "words" -> `Words
  | other -> failwith ("unknown ranking: " ^ other ^ " (ns|words)")

let hotspots backend ops top_n format by =
  let by = hotspots_by_of by in
  let _, p = Experiments.Exp_hostprof.run_churn ~ops (profile_backend_of backend) in
  let ranked by = Sim.Profile.top_spans ~k:top_n ~by p in
  match format with
  | "tree" ->
    let table title by =
      Printf.printf "%s\n%-44s %8s %12s %12s %12s %10s\n" title "PATH" "CALLS" "SELF_NS"
        "SELF_WORDS" "CUM_NS" "NS/VCYCLE";
      List.iter
        (fun (path, (n : Sim.Profile.node)) ->
          Printf.printf "%-44s %8d %12d %12d %12d %10.1f\n" path n.calls n.self_ns n.self_words
            n.ns (Sim.Profile.ns_per_vcycle n))
        (ranked by);
      print_newline ()
    in
    table (Printf.sprintf "Top %d paths by self host-ns:" top_n) `Ns;
    table (Printf.sprintf "Top %d paths by self allocated words:" top_n) `Words;
    Printf.printf "%d ns total, %.1f%% attributed; %d words allocated, %.1f%% attributed\n"
      (Sim.Profile.total ~by:`Ns p)
      (100.0 *. Sim.Profile.attributed_fraction ~by:`Ns p)
      (Sim.Profile.total ~by:`Words p)
      (100.0 *. Sim.Profile.attributed_fraction ~by:`Words p)
  | "csv" ->
    Printf.printf "path,calls,self_ns,ns,self_words,words,vcycles,ns_per_vcycle\n";
    List.iter
      (fun (path, (n : Sim.Profile.node)) ->
        Printf.printf "%s,%d,%d,%d,%d,%d,%d,%.3f\n" path n.calls n.self_ns n.ns n.self_words
          n.words n.cum (Sim.Profile.ns_per_vcycle n))
      (ranked by)
  | "collapsed" -> print_string (Sim.Profile.to_collapsed ~by p)
  | other -> failwith ("unknown format: " ^ other ^ " (tree|csv|collapsed)")

let hotspots_cmd =
  let doc =
    "Replay the churn workload with the span profiler attached and print the \
     hottest call-tree paths by self host-nanoseconds and by self allocated words (what the host \
     pays per simulated op), as ranked tables, CSV, or collapsed stacks for flamegraph.pl"
  in
  let backend = Arg.(value & opt string "fom" & info [ "backend" ] ~doc:"malloc|fom.") in
  let ops = Arg.(value & opt int 400 & info [ "ops" ] ~doc:"Operations in the trace.") in
  let top_n = Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc:"Paths per ranking.") in
  let format =
    Arg.(value & opt string "tree" & info [ "format" ] ~docv:"FMT" ~doc:"tree|csv|collapsed.")
  in
  let by =
    Arg.(
      value & opt string "ns"
      & info [ "by" ] ~docv:"METRIC" ~doc:"Ranking metric for csv/collapsed output: ns|words.")
  in
  Cmd.v (Cmd.info "hotspots" ~doc) Term.(const hotspots $ backend $ ops $ top_n $ format $ by)

(* --------------------------- bench-diff ---------------------------- *)

(* Exit codes: 0 = no regression, 1 = regression or class downgrade,
   2 = documents unreadable or incomparable (schema/provenance). *)
let bench_diff old_file new_file threshold gate_throughput gate_host_alloc =
  let read f =
    let ic = open_in_bin f in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let parse f =
    match read f with
    | exception Sys_error e ->
      Printf.eprintf "bench-diff: %s\n" e;
      exit 2
    | s -> (
      match Sim.Json.of_string s with
      | Ok v -> v
      | Error e ->
        Printf.eprintf "bench-diff: %s: %s\n" f e;
        exit 2)
  in
  let old_doc = parse old_file in
  let new_doc = parse new_file in
  match
    Sim.Regress.compare_docs ~threshold_pct:threshold ~gate_throughput ~gate_host_alloc ~old_doc
      ~new_doc ()
  with
  | Error reason ->
    Printf.eprintf "bench-diff: %s\n" reason;
    exit 2
  | Ok report ->
    print_string (Sim.Regress.render report);
    if Sim.Regress.regressions report <> [] then exit 1

let bench_diff_cmd =
  let doc =
    "Compare two bench JSON exports (counters, p50/p99 latencies, fitted complexity classes) and \
     fail on regressions beyond the threshold or any complexity-class downgrade"
  in
  let old_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD.json") in
  let new_arg = Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW.json") in
  let threshold =
    Arg.(
      value & opt float 10.0
      & info [ "threshold" ] ~docv:"PCT" ~doc:"Allowed counter/latency drift in percent.")
  in
  let gate_throughput =
    Arg.(
      value & flag
      & info [ "gate-throughput" ]
          ~doc:
            "Fail on wall-clock throughput drops too. Off by default: real-time ops/sec is \
             machine- and load-dependent, so it is reported but never gates.")
  in
  let gate_host_alloc =
    Arg.(
      value & flag
      & info [ "gate-host-alloc" ]
          ~doc:
            "Fail when host allocated-words metrics grow beyond the threshold. Unlike wall-clock \
             time, GC allocation counts are deterministic for a fixed binary and workload, so \
             growth is a real code change.")
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(const bench_diff $ old_arg $ new_arg $ threshold $ gate_throughput $ gate_host_alloc)

(* ----------------------------- churn ------------------------------- *)

let churn backend ops max_kib seed =
  let rng = Sim.Rng.create ~seed in
  let trace = Wl.Churn.generate ~rng ~ops ~max_bytes:(Sim.Units.kib max_kib) () in
  let k = Experiments.Bench_env.kernel ~dram:(Sim.Units.gib 2) ~nvm:(Sim.Units.gib 2) () in
  let run_with driver =
    let clock = Os.Kernel.clock k in
    let before = Sim.Clock.now clock in
    let n = Wl.Churn.run trace driver in
    (n, Sim.Clock.us clock (Sim.Clock.elapsed clock ~since:before))
  in
  let n, us, footprint =
    match backend with
    | "malloc" ->
      let p = Os.Kernel.create_process k () in
      let h = Heap.Malloc_sim.create k p in
      let n, us =
        run_with
          {
            Wl.Churn.h_malloc = (fun ~bytes -> Heap.Malloc_sim.malloc h ~bytes);
            h_free = (fun va -> Heap.Malloc_sim.free h va);
            h_touch =
              (fun ~va ~bytes ->
                ignore
                  (Os.Kernel.access_range k p ~va ~len:(max 1 bytes) ~write:true
                     ~stride:Sim.Units.page_size));
          }
      in
      (n, us, Heap.Malloc_sim.footprint_bytes h)
    | "tcmalloc" ->
      let p = Os.Kernel.create_process k () in
      let h = Heap.Tcmalloc_sim.create k p () in
      let next = ref 0 in
      let owner = Hashtbl.create 64 in
      let n, us =
        run_with
          {
            Wl.Churn.h_malloc =
              (fun ~bytes ->
                let th = !next mod 4 in
                incr next;
                let va = Heap.Tcmalloc_sim.malloc h ~thread:th ~bytes in
                Hashtbl.replace owner va th;
                va);
            h_free =
              (fun va ->
                Heap.Tcmalloc_sim.free h ~thread:(Option.value (Hashtbl.find_opt owner va) ~default:0) va);
            h_touch =
              (fun ~va ~bytes ->
                ignore
                  (Os.Kernel.access_range k p ~va ~len:(max 1 bytes) ~write:true
                     ~stride:Sim.Units.page_size));
          }
      in
      (n, us, Heap.Tcmalloc_sim.footprint_bytes h)
    | "fom" ->
      let fom = O1mem.Fom.create k () in
      let p = Os.Kernel.create_process k () in
      let h = Heap.Fom_heap.create fom p () in
      let n, us =
        run_with
          {
            Wl.Churn.h_malloc = (fun ~bytes -> Heap.Fom_heap.malloc h ~bytes);
            h_free = (fun va -> Heap.Fom_heap.free h va);
            h_touch =
              (fun ~va ~bytes ->
                ignore
                  (O1mem.Fom.access_range fom p ~va ~len:(max 1 bytes) ~write:true
                     ~stride:Sim.Units.page_size));
          }
      in
      (n, us, Heap.Fom_heap.footprint_bytes h)
    | other -> failwith ("unknown backend: " ^ other ^ " (malloc|tcmalloc|fom)")
  in
  Printf.printf "backend %-8s  %d ops in %.1f us simulated, footprint %s
" backend n us
    (Sim.Units.bytes_to_string footprint);
  List.iter
    (fun key ->
      let v = Sim.Stats.get (Os.Kernel.stats k) key in
      if v > 0 then Printf.printf "  %-16s %d
" key v)
    [ "page_fault"; "minor_fault"; "pte_write"; "fom_grafts"; "syscall" ]

let churn_cmd =
  let doc = "Replay an allocation-churn trace on a chosen heap backend" in
  let backend = Arg.(value & opt string "fom" & info [ "backend" ] ~doc:"malloc|tcmalloc|fom.") in
  let ops = Arg.(value & opt int 500 & info [ "ops" ] ~doc:"Operations in the trace.") in
  let max_kib = Arg.(value & opt int 256 & info [ "max-kib" ] ~doc:"Largest object, KiB.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed.") in
  Cmd.v (Cmd.info "churn" ~doc) Term.(const churn $ backend $ ops $ max_kib $ seed)

let () =
  let doc = "file-only memory simulator (reproduction of 'Towards O(1) Memory', HotOS'17)" in
  let info = Cmd.info "o1mem_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            experiments_cmd; study_cmd; walkrefs_cmd; simulate_cmd; churn_cmd; metrics_cmd;
            profile_cmd; top_cmd; hotspots_cmd; timeline_cmd; critical_path_cmd; faults_cmd;
            store_cmd; bench_diff_cmd;
          ]))
