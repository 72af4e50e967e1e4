(* The persistent object store: transactions, recovery, damage
   detection, degradation, and the crash explorer. *)

open Helpers
module K = Os.Kernel
module P = O1mem.Persistence
module Kv = Store.Kv
module SC = Store.Chaos
module C = O1mem.Chaos
module FI = Sim.Fault_inject

let store_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 8;
    nvm_bytes = Sim.Units.mib 8;
  }

let mk_store ?(seed = 1) ?arena_bytes ?wal_bytes ?manifest_bytes () =
  let kernel = K.create ~config:store_config () in
  let plane = FI.create ~seed ~stats:(K.stats kernel) () in
  Sim.Trace.attach_faults (K.trace kernel) plane;
  let fom = O1mem.Fom.create kernel () in
  let proc = K.create_process kernel () in
  let st = Kv.create fom proc ?arena_bytes ?wal_bytes ?manifest_bytes ~name:"/kv" () in
  (kernel, fom, plane, st)

let commit_put st kvs roots =
  ignore (Kv.begin_txn st);
  List.iter (fun (k, v) -> Kv.put st k v) kvs;
  List.iter (fun (r, k) -> Kv.set_root st r k) roots;
  Kv.commit st

(* ------------------------------ basics ------------------------------ *)

let test_basic () =
  let kernel, _, _, st = mk_store () in
  commit_put st [ ("alpha", "one"); ("beta", String.make 200 'b') ] [ ("head", "alpha") ];
  Alcotest.(check (option string)) "get" (Some "one") (Kv.get st "alpha");
  Alcotest.(check (option string)) "get big" (Some (String.make 200 'b')) (Kv.get st "beta");
  Alcotest.(check (option string)) "root" (Some "alpha") (Kv.root st "head");
  check_int "count" 2 (Kv.object_count st);
  check_bool "no open txn" false (Kv.txn_live st);
  check_int "gauge tracks objects" 2 (Sim.Stats.gauge (K.stats kernel) "store_objects");
  check_bool "wal holds the txn" true (Kv.wal_record_count st > 0);
  Alcotest.(check (list string)) "keys sorted" [ "alpha"; "beta" ] (Kv.keys st);
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

let test_abort_discards () =
  let _, _, _, st = mk_store () in
  commit_put st [ ("keep", "v") ] [];
  ignore (Kv.begin_txn st);
  Kv.put st "drop" "x";
  Kv.delete st "keep";
  Kv.abort st;
  check_bool "aborted put invisible" false (Kv.mem st "drop");
  Alcotest.(check (option string)) "aborted delete undone" (Some "v") (Kv.get st "keep");
  Kv.detach st

let test_delete_clears_roots () =
  let _, _, _, st = mk_store () in
  commit_put st [ ("a", "1"); ("b", "2") ] [ ("head", "a"); ("tail", "b") ];
  ignore (Kv.begin_txn st);
  Kv.delete st "a";
  Kv.commit st;
  Alcotest.(check (option string)) "root of deleted key cleared" None (Kv.root st "head");
  Alcotest.(check (option string)) "other root intact" (Some "b") (Kv.root st "tail");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

let test_validation () =
  let kernel, fom, _, st = mk_store () in
  Alcotest.check_raises "no txn" (Invalid_argument "Store: no open transaction") (fun () ->
      Kv.put st "k" "v");
  ignore (Kv.begin_txn st);
  Alcotest.check_raises "double begin" (Invalid_argument "Store.begin_txn: transaction already open")
    (fun () -> ignore (Kv.begin_txn st));
  Alcotest.check_raises "empty key" (Invalid_argument "Store.put: bad key") (fun () ->
      Kv.put st "" "v");
  Alcotest.check_raises "oversized value" (Invalid_argument "Store.put: bad value size") (fun () ->
      Kv.put st "k" (String.make (Sim.Units.kib 17) 'x'));
  Kv.abort st;
  Alcotest.check_raises "relative name" (Invalid_argument "Store.create: name must be an absolute path")
    (fun () -> ignore (Kv.create fom (K.create_process kernel ()) ~name:"kv" ()));
  Alcotest.check_raises "create over an existing store"
    (Invalid_argument "Store.create: /kv.wal already exists (create never reopens a prior store)")
    (fun () -> ignore (Kv.create fom (K.create_process kernel ()) ~name:"/kv" ()));
  Kv.detach st

(* ------------------------------ recovery ---------------------------- *)

let test_crash_recovers_committed_prefix () =
  let _, fom, _, st = mk_store () in
  commit_put st [ ("stable", "before") ] [ ("head", "stable") ];
  let proc_before = Kv.proc st in
  ignore (Kv.begin_txn st);
  Kv.put st "inflight" "never committed";
  (* Power fails with the transaction open: nothing of it was logged. *)
  let report = P.crash_and_recover fom in
  check_bool "store hook ran" true
    (List.mem_assoc "store/kv" report.P.hook_records);
  Alcotest.(check (option string)) "committed survives" (Some "before") (Kv.get st "stable");
  Alcotest.(check (option string)) "root survives" (Some "stable") (Kv.root st "head");
  check_bool "in-flight txn gone" false (Kv.mem st "inflight");
  check_bool "open txn dropped" false (Kv.txn_live st);
  check_bool "recovery re-homed the store" true (not (Kv.proc st == proc_before));
  (* The relocated store keeps working. *)
  commit_put st [ ("after", "crash") ] [];
  Alcotest.(check (option string)) "post-recovery write" (Some "crash") (Kv.get st "after");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* ------------------------- bytes on NVM ----------------------------- *)

(* A scripted workload whose every record kind (P/D/R/C/T) is committed,
   checkpointed, and committed again. *)
let scripted_workload st =
  let value i = String.init (17 + (i * 37 mod 300)) (fun j -> Char.chr (97 + ((i + j) mod 26))) in
  let key i = Printf.sprintf "key%03d" i in
  for batch = 0 to 9 do
    commit_put st (List.init 20 (fun i -> (key ((batch * 20) + i), value ((batch * 20) + i)))) []
  done;
  let txn i ~clear =
    ignore (Kv.begin_txn st);
    Kv.put st (key (i * 13 mod 250)) (value (i + 1000));
    Kv.delete st (key (i * 7 mod 200));
    Kv.set_root st (Printf.sprintf "root%d" (i mod 5)) (key (i * 13 mod 250));
    if clear then Kv.clear_root st (Printf.sprintf "root%d" ((i + 2) mod 5));
    Kv.commit st
  in
  for i = 0 to 49 do
    txn i ~clear:false
  done;
  Kv.checkpoint st;
  for i = 50 to 54 do
    txn i ~clear:true
  done

(* MD5 of the bytes of every file named, in order, read extent by extent
   without charging anything. *)
let files_digest kernel fom paths =
  let fs = O1mem.Fom.fs fom and mem = K.mem kernel in
  let b = Buffer.create 4096 in
  List.iter
    (fun path ->
      let ino = Option.get (Fs.Memfs.lookup fs path) in
      List.iter
        (fun (e : Fs.Extent.t) ->
          Buffer.add_bytes b
            (Physmem.Phys_mem.peek mem ~addr:(Physmem.Frame.to_addr e.Fs.Extent.start)
               ~len:(e.Fs.Extent.count * Sim.Units.page_size)))
        (Fs.Memfs.file_extents fs ino))
    paths;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The record encoders and the slot writer fill buffers by hand; these
   digests pin what they put on NVM, byte for byte. *)
let test_nvm_bytes_pinned () =
  let kernel, fom, _, st = mk_store () in
  scripted_workload st;
  check_string "WAL + manifest bytes" "a50dc9813ccd9a0104742ed11f55cb72"
    (files_digest kernel fom [ "/kv.wal"; "/kv.manifest" ]);
  check_string "arena bytes" "5d775db061c0864d1c7ded78d31b847c"
    (files_digest kernel fom (List.init (Kv.arena_count st) (Printf.sprintf "/kv.arena.%d")));
  Kv.detach st

(* Every record in the log decodes on replay: recovery replays each of
   them and lands on the state that was committed. *)
let test_every_record_kind_replays () =
  let _, fom, _, st = mk_store () in
  scripted_workload st;
  let contents () = (List.map (fun k -> (k, Kv.get st k)) (Kv.keys st), Kv.roots st) in
  let before = contents () and records = Kv.wal_record_count st in
  check_int "5 transactions of P, D, R, C and T records" 25 records;
  ignore (P.crash_and_recover fom);
  check_int "every record replayed" records (Kv.last_replayed st);
  check_int "no truncation" 0 (Kv.recovery_truncations st);
  check_bool "recovered state = committed state" true (before = contents ());
  Kv.detach st

(* Free NVM left as one-page holes: the store's first arena then gets
   one extent per page, and every value that crosses a page boundary
   spans two extents. Such slots are read and written chunk by chunk;
   the cycles they cost are pinned. *)
let test_slots_spanning_extents () =
  let kernel, fom, _, st = mk_store ~arena_bytes:(8 * Sim.Units.page_size) () in
  let fs = O1mem.Fom.fs fom and page = Sim.Units.page_size in
  let mk path pages =
    let ino = Fs.Memfs.create_file fs path ~persistence:Fs.Inode.Persistent in
    Fs.Memfs.extend fs ino ~bytes_wanted:(pages * page)
  in
  mk "/filler" ((Fs.Memfs.free_bytes fs / page) - 24);
  for i = 0 to 23 do
    mk (Printf.sprintf "/hole%d" i) 1
  done;
  for i = 0 to 11 do
    Fs.Memfs.unlink fs (Printf.sprintf "/hole%d" (2 * i))
  done;
  let clock = K.clock kernel in
  let start = Sim.Clock.now clock in
  (* Bump-allocated at arena offsets 0, 1024 and 9216: the last two cross
     a page boundary. *)
  let value i =
    String.init (List.nth [ 1000; 6000; 3100 ] i) (fun j -> Char.chr (65 + ((i + j) mod 26)))
  in
  for i = 0 to 2 do
    commit_put st [ (Printf.sprintf "v%d" i, value i) ] []
  done;
  let arena = Option.get (Fs.Memfs.lookup fs "/kv.arena.0") in
  check_bool "the arena spans extents" true (List.length (Fs.Memfs.file_extents fs arena) > 1);
  for i = 0 to 2 do
    Alcotest.(check (option string))
      "value back" (Some (value i))
      (Kv.get st (Printf.sprintf "v%d" i))
  done;
  check_int "cycles for 3 puts and 3 gets" 223_512 (Sim.Clock.elapsed clock ~since:start);
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  ignore (P.crash_and_recover fom);
  Alcotest.(check (option string)) "replayed value" (Some (value 1)) (Kv.get st "v1");
  Kv.detach st

let test_recover_twice_idempotent () =
  let kernel, fom, _, st = mk_store () in
  commit_put st [ ("a", "1"); ("b", String.make 300 'b') ] [ ("head", "b") ];
  ignore (P.crash_and_recover fom);
  let snap1 = (Kv.keys st, Kv.roots st, Kv.last_replayed st) in
  let gauge1 = Sim.Stats.gauge (K.stats kernel) "store_objects" in
  ignore (P.crash_and_recover fom);
  let snap2 = (Kv.keys st, Kv.roots st, Kv.last_replayed st) in
  check_bool "recover twice == recover once" true (snap1 = snap2);
  check_int "object gauge stable" gauge1 (Sim.Stats.gauge (K.stats kernel) "store_objects");
  check_int "wal gauge re-baselined" (Kv.wal_used_bytes st)
    (Sim.Stats.gauge (K.stats kernel) "store_wal_bytes");
  Alcotest.(check (option string)) "values intact" (Some "1") (Kv.get st "a");
  check_int "recover counted" 2 (Sim.Stats.get (K.stats kernel) "store_recover");
  Kv.detach st

let test_checkpoint_cuts_replay () =
  let _, fom, _, st = mk_store () in
  for i = 0 to 9 do
    commit_put st [ (Printf.sprintf "k%d" i, Printf.sprintf "v%d" i) ] []
  done;
  Kv.checkpoint st;
  check_int "wal cut" 0 (Kv.wal_record_count st);
  check_bool "generation bumped" true (Kv.generation st >= 1);
  ignore (P.crash_and_recover fom);
  check_int "nothing to replay after checkpoint" 0 (Kv.last_replayed st);
  check_int "all objects back from the snapshot" 10 (Kv.object_count st);
  Alcotest.(check (option string)) "snapshot data" (Some "v7") (Kv.get st "k7");
  (* Post-checkpoint commits replay on top of the snapshot. *)
  commit_put st [ ("k3", "updated") ] [];
  ignore (P.crash_and_recover fom);
  Alcotest.(check (option string)) "log wins over snapshot" (Some "updated") (Kv.get st "k3");
  check_bool "replayed the tail only" true (Kv.last_replayed st <= 2);
  Kv.detach st

let test_wal_full_autocheckpoint () =
  let kernel, _, _, st = mk_store ~wal_bytes:(Sim.Units.kib 8) () in
  for i = 1 to 24 do
    commit_put st [ (Printf.sprintf "k%d" (i mod 6), String.make 900 (Char.chr (64 + i))) ] []
  done;
  check_bool "auto-checkpoint fired" true
    (Sim.Stats.get (K.stats kernel) "store_wal_checkpoint" >= 1);
  Alcotest.(check (option string)) "latest value served" (Some (String.make 900 'X'))
    (Kv.get st (Printf.sprintf "k%d" (24 mod 6)));
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* ------------------------------ degradation ------------------------- *)

let test_enospc_typed_and_clean () =
  let _, _, _, st = mk_store ~wal_bytes:(Sim.Units.kib 8) () in
  commit_put st [ ("seed", "v") ] [];
  (try
     ignore (Kv.begin_txn st);
     for j = 1 to 10 do
       Kv.put st (Printf.sprintf "big%d" j) (String.make 1500 'x')
     done;
     Kv.commit st;
     Alcotest.fail "oversized transaction must raise ENOSPC"
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_bool "txn rolled back" false (Kv.txn_live st);
  check_bool "no partial object" false (Kv.mem st "big1");
  Alcotest.(check (option string)) "prior state intact" (Some "v") (Kv.get st "seed");
  commit_put st [ ("after", "ok") ] [];
  Alcotest.(check (option string)) "store still usable" (Some "ok") (Kv.get st "after");
  Kv.detach st

(* A commit that overflows the WAL even after the auto-checkpoint rolls
   back AND durably cuts its partial records: a crash after a later
   successful commit must never resurrect the rolled-back ops. *)
let test_failed_commit_orphans_cut () =
  let _, fom, _, st = mk_store ~wal_bytes:(Sim.Units.kib 8) () in
  commit_put st [ ("seed", "v") ] [];
  (try
     ignore (Kv.begin_txn st);
     for j = 1 to 10 do
       Kv.put st (Printf.sprintf "big%d" j) (String.make 1500 'x')
     done;
     Kv.commit st;
     Alcotest.fail "oversized transaction must raise ENOSPC"
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_int "failed attempt's records durably cut" 0 (Kv.wal_record_count st);
  commit_put st [ ("after", "ok") ] [];
  ignore (P.crash_and_recover fom);
  check_bool "rolled-back put not resurrected" false (Kv.mem st "big1");
  Alcotest.(check (option string)) "seed intact" (Some "v") (Kv.get st "seed");
  Alcotest.(check (option string)) "later commit intact" (Some "ok") (Kv.get st "after");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* When the auto-checkpoint itself cannot land (snapshot outgrew a
   manifest half), the log cannot be cut and the failed commit's records
   linger ahead of later transactions — replay must refuse to attribute
   them to a later commit record. *)
let test_checkpoint_enospc_orphans_inert () =
  let kernel, fom, _, st =
    mk_store ~wal_bytes:(Sim.Units.kib 8) ~manifest_bytes:(Sim.Units.kib 1) ()
  in
  (* Enough objects that the snapshot no longer fits a 512-byte manifest
     half: the WAL-full auto-checkpoint fails with ENOSPC mid-commit. *)
  for i = 0 to 19 do
    commit_put st [ (Printf.sprintf "seedkey%03d" i, "v") ] []
  done;
  (try
     ignore (Kv.begin_txn st);
     Kv.put st "bigA" (String.make 3500 'x');
     Kv.put st "bigB" (String.make 3500 'y');
     Kv.commit st;
     Alcotest.fail "commit must raise ENOSPC when the checkpoint cannot land"
   with Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> ());
  check_bool "txn rolled back" false (Kv.txn_live st);
  check_bool "orphan records linger in the log" true (Kv.wal_record_count st > 0);
  commit_put st [ ("after", "ok") ] [];
  ignore (P.crash_and_recover fom);
  check_bool "orphans dropped at replay" true
    (Sim.Stats.get (K.stats kernel) "store_wal_orphans" >= 1);
  check_bool "rolled-back put not resurrected" false (Kv.mem st "bigA");
  Alcotest.(check (option string)) "later commit intact" (Some "ok") (Kv.get st "after");
  check_int "seeds plus the later commit" 21 (Kv.object_count st);
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

let test_injected_fault_sites () =
  let kernel, _, plane, st = mk_store () in
  (* Commit abort: typed EIO before anything is logged. *)
  FI.arm plane ~site:FI.site_store_commit (FI.On_nth 1);
  ignore (Kv.begin_txn st);
  Kv.put st "k" "v";
  (try
     Kv.commit st;
     Alcotest.fail "injected commit abort must raise EIO"
   with Sim.Errno.Error (Sim.Errno.EIO, _) -> ());
  check_bool "aborted commit leaves nothing" false (Kv.mem st "k");
  (* Allocation failure: defragment-and-retry saves the commit. On_nth
     counts cumulative per-site evaluations, so arm relative to now. *)
  FI.arm plane ~site:FI.site_store_alloc
    (FI.On_nth (FI.evaluations plane ~site:FI.site_store_alloc + 1));
  commit_put st [ ("k", "v2") ] [];
  Alcotest.(check (option string)) "retried alloc committed" (Some "v2") (Kv.get st "k");
  check_int "alloc retry counted" 1 (Sim.Stats.get (K.stats kernel) "store_alloc_retry");
  (* Media-write retry: the redo is charged, the data lands. *)
  FI.arm plane ~site:FI.site_store_apply
    (FI.On_nth (FI.evaluations plane ~site:FI.site_store_apply + 1));
  commit_put st [ ("k", "v3") ] [];
  Alcotest.(check (option string)) "retried apply committed" (Some "v3") (Kv.get st "k");
  check_int "apply retry counted" 1 (Sim.Stats.get (K.stats kernel) "store_apply_retry");
  check_int "self-check clean" 0 (List.length (Kv.verify st));
  Kv.detach st

(* ------------------------------ invariant rule ----------------------- *)

let test_check_rule_guards_roots () =
  let kernel, fom, _, st = mk_store () in
  commit_put st [ ("a", "1") ] [ ("head", "a") ];
  check_int "rule quiet on a healthy store" 0
    (List.length (List.filter (fun v -> v.Os.Check.check = "store_roots") (Os.Check.run kernel)));
  (* Destroy the arena behind the live root: the rule must notice. *)
  Fs.Memfs.unlink (O1mem.Fom.fs fom) "/kv.arena.0";
  let tripped =
    List.filter (fun v -> v.Os.Check.check = "store_roots") (Os.Check.run kernel)
  in
  check_bool "rule trips on a lost arena" true (tripped <> []);
  Kv.detach st;
  check_int "detached rule unregistered" 0
    (List.length (List.filter (fun v -> v.Os.Check.check = "store_roots") (Os.Check.run kernel)))

(* ------------------------------ corruption (qcheck) ------------------ *)

(* Crash with one WAL byte corrupted at a random offset: recovery must
   land on a transaction boundary — some prefix of the committed states,
   never a partial transaction — and must count a detection. *)
let prop_torn_wal_byte =
  qtest ~count:20 "random WAL corruption never yields a partial transaction"
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 1 1000))
    (fun (off, seed) ->
      let _, fom, _, st = mk_store ~seed () in
      let mirrors = ref [ (Kv.keys st, Kv.roots st) ] in
      for c = 1 to 3 do
        commit_put st
          [ (Printf.sprintf "k%d" c, String.make (30 * c) 'v'); ("shared", String.make (20 + c) 's') ]
          [ ("head", Printf.sprintf "k%d" c) ];
        mirrors := (Kv.keys st, Kv.roots st) :: !mirrors
      done;
      let fsys = O1mem.Fom.fs fom in
      let wal_ino = Option.get (Fs.Memfs.lookup fsys "/kv.wal") in
      let base =
        match Fs.Memfs.file_extents fsys wal_ino with
        | e :: _ -> Physmem.Frame.to_addr e.Fs.Extent.start
        | [] -> Alcotest.fail "WAL has no extents"
      in
      let target = base + (off mod Kv.wal_used_bytes st) in
      let mem = Fs.Memfs.mem fsys in
      let byte = Bytes.get (Physmem.Phys_mem.read mem ~addr:target ~len:1) 0 in
      Physmem.Phys_mem.restore_range mem ~addr:target
        (String.make 1 (Char.chr (Char.code byte lxor 0xFF)));
      ignore (P.crash_and_recover fom);
      let state = (Kv.keys st, Kv.roots st) in
      let clean = List.exists (fun m -> m = state) !mirrors in
      let detected = Kv.recovery_truncations st >= 1 in
      Kv.detach st;
      clean && detected)

(* ------------------------------ explorer & plan ---------------------- *)

let test_explorer_exhaustive () =
  let r = SC.explore_store ~keys:4 ~txns:2 ~seed:13 () in
  Alcotest.(check (list string)) "no violations" [] r.C.violations;
  check_bool "boundaries found" true (r.C.steps > 0);
  check_bool "every boundary crashed (plus damage arms)" true (r.C.crashes > r.C.steps);
  check_bool "torn arm detected damage" true (List.assoc "torn" r.C.detections >= 1);
  check_bool "flip arm detected damage" true (List.assoc "flip" r.C.detections >= 1)

(* The explorer at the bench seed (bench/exp_store.ml), pinned. Store
   recovery crosses durable boundaries of its own (the store hook redoes
   the burst's 16 WAL records in place); a crash at each must still
   recover the final state. *)
let test_explorer_pinned () =
  let r = SC.explore_store ~keys:6 ~txns:3 ~seed:17 () in
  check_int "steps" 92 r.C.steps;
  check_int "fences" 38 r.C.fences;
  check_int "crashes" 100 r.C.crashes;
  check_int "recovery boundaries" 12 r.C.recovery_steps;
  Alcotest.(check (list (pair string int))) "detections" [ ("torn", 7); ("flip", 9) ] r.C.detections;
  Alcotest.(check (list string)) "no violations" [] r.C.violations

let test_store_plan () =
  let o = SC.run_plan ~seed:3 ~rounds:10 () in
  check_string "plan name" "store" o.O1mem.Chaos.plan;
  Alcotest.(check (list string)) "no invariant violations" []
    (List.map Os.Check.violation_to_string o.O1mem.Chaos.checks);
  check_bool "faults were injected" true (o.O1mem.Chaos.injected_total >= 1);
  check_bool "ENOSPC finale degraded typed" true (o.O1mem.Chaos.enospc >= 1);
  check_bool "store sites consulted" true
    (List.exists (fun (s, evals, _) -> s = FI.site_store_commit && evals > 0) o.O1mem.Chaos.sites)

let suite =
  [
    Alcotest.test_case "basic put/get/root/commit" `Quick test_basic;
    Alcotest.test_case "abort discards the transaction" `Quick test_abort_discards;
    Alcotest.test_case "delete clears referencing roots" `Quick test_delete_clears_roots;
    Alcotest.test_case "API validation" `Quick test_validation;
    Alcotest.test_case "crash recovers the committed prefix" `Quick
      test_crash_recovers_committed_prefix;
    Alcotest.test_case "recovery is idempotent, gauges re-baselined" `Quick
      test_recover_twice_idempotent;
    Alcotest.test_case "checkpoint cuts the replay" `Quick test_checkpoint_cuts_replay;
    Alcotest.test_case "bytes on NVM pinned" `Quick test_nvm_bytes_pinned;
    Alcotest.test_case "every record kind replays" `Quick test_every_record_kind_replays;
    Alcotest.test_case "slots spanning extents" `Quick test_slots_spanning_extents;
    Alcotest.test_case "WAL-full commit auto-checkpoints" `Quick test_wal_full_autocheckpoint;
    Alcotest.test_case "over-capacity commit degrades to typed ENOSPC" `Quick
      test_enospc_typed_and_clean;
    Alcotest.test_case "failed commit's WAL records are durably cut" `Quick
      test_failed_commit_orphans_cut;
    Alcotest.test_case "orphan records of a failed commit are never replayed" `Quick
      test_checkpoint_enospc_orphans_inert;
    Alcotest.test_case "injected store faults degrade and retry" `Quick test_injected_fault_sites;
    Alcotest.test_case "check rule guards live roots" `Quick test_check_rule_guards_roots;
    prop_torn_wal_byte;
    Alcotest.test_case "explorer: crash at every boundary" `Slow test_explorer_exhaustive;
    Alcotest.test_case "store fault plan" `Quick test_store_plan;
    Alcotest.test_case "explorer: bench seed pinned" `Quick test_explorer_pinned;
  ]
