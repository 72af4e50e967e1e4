(* Benchmark harness: regenerates every table and figure of the paper
   (sections E1..E17, printed as tables of *simulated* time), then runs a
   Bechamel suite timing the host-side cost of each experiment's core
   operation (one Test.make per experiment). *)

let separator title =
  Printf.printf "\n%s\n== %s\n%s\n" (String.make 72 '=') title (String.make 72 '=')

let run_tables () =
  Printf.printf "o1mem bench harness - reproduction of 'Towards O(1) Memory' (HotOS'17)\n";
  Format.printf "%a@." Sim.Cost_model.pp Sim.Cost_model.default;
  Printf.printf "All times below are simulated (virtual 2GHz clock), deterministic.\n";
  separator "Mapping costs (E1, E2, E4, E8)";
  Experiments.Exp_mapping.run ();
  separator "Allocation costs (E3, E9, E14, E15)";
  Experiments.Exp_alloc.run ();
  separator "Page-table sharing (E5, E6, E16)";
  Experiments.Exp_sharing.run ();
  separator "Range translations and walk costs (E7, E10)";
  Experiments.Exp_range.run ();
  separator "OS economics (E11, E12, E13, E17)";
  Experiments.Exp_os.run ();
  separator "Ablations (A1..A9)";
  Experiments.Exp_ablation.run ();
  separator "Complexity classes (C1)";
  Experiments.Exp_complexity.run ();
  separator "Robustness (R1)";
  Experiments.Exp_faults.run ();
  separator "Store robustness (R2)";
  Experiments.Exp_store.run ()

(* ------------------------------------------------------------------ *)
(* Bechamel: host wall-clock of each experiment's core operation.      *)

open Bechamel
open Toolkit

module B = Experiments.Bench_env

let bechamel_tests () =
  let mk name f = Test.make ~name (Staged.stage f) in
  (* Long-lived fixtures; every thunk below is repeatable and leaves the
     machine in a steady state. *)
  let k1 = B.kernel () in
  let p1 = Os.Kernel.create_process k1 () in
  let fs1, path1, _ = B.tmpfs_file k1 ~bytes:(Sim.Units.kib 64) in
  let k2, fom2 = B.kernel_and_fom () in
  let p2 = Os.Kernel.create_process k2 ~range_translations:true () in
  let shared = O1mem.Fom.alloc fom2 p2 ~name:"/bench-shared" ~len:(Sim.Units.mib 8) ~prot:Hw.Prot.r () in
  ignore shared;
  let warm = O1mem.Fom.alloc fom2 p2 ~len:(Sim.Units.mib 1) ~prot:Hw.Prot.rw () in
  let k3 = B.kernel () in
  let p3 = Os.Kernel.create_process k3 () in
  let va3 = Os.Kernel.mmap_anon k3 p3 ~len:(Sim.Units.mib 1) ~prot:Hw.Prot.rw ~populate:true in
  [
    mk "E1:mmap_populate_64k" (fun () ->
        let va =
          Os.Kernel.mmap_file k1 p1 ~fs:fs1 ~path:path1 ~prot:Hw.Prot.r ~share:Os.Vma.Private
            ~populate:true ()
        in
        Os.Kernel.munmap k1 p1 ~va ~len:(Sim.Units.kib 64));
    mk "E2:touch_256_pages_populated" (fun () ->
        B.touch_pages_kernel k3 p3 ~va:va3 ~len:(Sim.Units.mib 1) ~write:false);
    mk "E3:fom_alloc_free_64k" (fun () ->
        let r = O1mem.Fom.alloc fom2 p2 ~len:(Sim.Units.kib 64) ~prot:Hw.Prot.rw () in
        O1mem.Fom.free fom2 p2 r);
    mk "E5:graft_map_unmap_8m" (fun () ->
        let r = O1mem.Fom.map_path fom2 p2 "/bench-shared" in
        O1mem.Fom.unmap fom2 p2 r);
    mk "E7:range_alloc_touch_free_1m" (fun () ->
        let r =
          O1mem.Fom.alloc fom2 p2 ~strategy:O1mem.Fom.Range_translation ~len:(Sim.Units.mib 1)
            ~prot:Hw.Prot.rw ()
        in
        B.touch_pages_fom fom2 p2 ~va:r.O1mem.Fom.va ~len:r.O1mem.Fom.len ~write:false;
        O1mem.Fom.free fom2 p2 r);
    mk "E8:read_syscall_16k" (fun () ->
        let ino = Option.get (Fs.Memfs.lookup fs1 path1) in
        ignore (Os.Kernel.read_syscall k1 p1 ~fs:fs1 ~ino ~off:0 ~len:(Sim.Units.kib 16)));
    mk "E9:bulk_erase_16m" (fun () ->
        let e = O1mem.Erase.create ~mem:(Os.Kernel.mem k1) ~strategy:O1mem.Erase.Bulk_device in
        O1mem.Erase.erase_extent e ~first:0 ~count:4096);
    mk "E12:discard_pressure" (fun () ->
        let d = O1mem.Discard.create ~fs:(O1mem.Fom.fs fom2) in
        O1mem.Discard.register_cache_file d ~path:"/bench-cache" ~size:(Sim.Units.kib 256);
        ignore (O1mem.Discard.pressure d ~needed_bytes:(Sim.Units.kib 256)));
    mk "E14:fom_touch_warm_1m" (fun () ->
        B.touch_pages_fom fom2 p2 ~va:warm.O1mem.Fom.va ~len:warm.O1mem.Fom.len ~write:true);
    mk "E11:fs_study_small" (fun () ->
        ignore
          (Wl.Fs_study.run ~rng:(Sim.Rng.create ~seed:1)
             { Wl.Fs_study.default_params with Wl.Fs_study.machines = 20; years = 3 }));
  ]

let run_bechamel () =
  separator "Bechamel micro-benchmarks (host wall-clock of the simulator itself)";
  let tests = bechamel_tests () in
  let test = Test.make_grouped ~name:"o1mem" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _witness tbl ->
      let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] in
      List.iter
        (fun (name, result) ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-40s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-40s (no estimate)\n" name)
        (List.sort compare rows))
    merged

(* ------------------------------------------------------------------ *)
(* --json [--out FILE] [--smoke]: run the deterministic metrics workload
   (plus the complexity sweeps) and write the JSON export to FILE,
   defaulting to BENCH_<date>.json. The default file name depends on the
   host (today's date), and the appended "throughput" (wall-clock ops/sec
   medians over k trials; --smoke shrinks its workloads) and "host"
   (host-side profile attribution: ns noisy, allocated words deterministic)
   sections mix in host measurements; everything else is purely
   virtual-clock-derived and byte-identical across machines — which is
   why bench-diff gates on those sections, reports on throughput/host ns,
   and gates host allocated words only under --gate-host-alloc. *)

let smoke () = Array.exists (( = ) "--smoke") Sys.argv

let run_json () =
  let rec out_arg = function
    | "--out" :: f :: _ -> Some f
    | _ :: tl -> out_arg tl
    | [] -> None
  in
  let file =
    match out_arg (Array.to_list Sys.argv) with
    | Some f -> f
    | None ->
      let tm = Unix.localtime (Unix.time ()) in
      Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
        tm.Unix.tm_mday
  in
  let json =
    match Experiments.Exp_metrics.run_to_json ~events_limit:256 () with
    | Sim.Json.Obj fields ->
      Sim.Json.Obj
        (fields
        @ [
            ("throughput", Experiments.Exp_throughput.to_json ~smoke:(smoke ()) ());
            ("host", Experiments.Exp_hostprof.to_json ());
          ])
    | other -> other
  in
  let oc = open_out file in
  output_string oc (Sim.Json.to_string ~pretty:true json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

let () =
  if Array.exists (( = ) "--json") Sys.argv then run_json ()
  else if Array.exists (( = ) "--throughput") Sys.argv then
    Experiments.Exp_throughput.run ~smoke:(smoke ()) ()
  else begin
    run_tables ();
    run_bechamel ();
    Printf.printf "\nDone.\n"
  end
