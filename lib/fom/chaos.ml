(* Crash-at-every-step exploration and named fault plans.

   One explorer serves every persistent component, which plugs in as a
   [Subject]. It leans on one property of the injection plane: an
   unarmed site still counts its evaluations. Pass 0 runs the workload
   to completion with ["durable_step"] unarmed, which enumerates every
   clwb/sfence boundary the workload crosses; it then loses power,
   recovers and counts the boundaries recovery itself crosses. The
   explorer replays the workload once per boundary with [On_nth k]
   armed, crashes the machine at that exact point, recovers, and asks
   the subject's oracle. Every pass uses the same seed, so the k-th
   replay is identical to pass 0 up to the crash. *)

module FI = Sim.Fault_inject

type report = {
  steps : int;
  fences : int;
  crashes : int;
  recovery_steps : int;
  detections : (string * int) list;
  violations : string list;
}

type damage = { label : string; site : string; p : float }

module type Subject = sig
  type t

  val create : seed:int -> t
  val plane : t -> FI.t
  val stats : t -> Sim.Stats.t
  val run : t -> mark:(unit -> unit) -> unit
  val recover : t -> unit
  val check : t -> fail:(string -> unit) -> unit
  val damage : damage list
  val check_damaged : t -> fail:(string -> unit) -> int
end

let explore (module S : Subject) ~seed =
  let violations = ref [] in
  let fail where k msg = violations := Printf.sprintf "%sstep %d: %s" where k msg :: !violations in
  let evals m = FI.evaluations (S.plane m) ~site:FI.site_durable_step in
  let sfences m = Sim.Stats.get (S.stats m) "sfence" in
  let crashed f = match f () with () -> false | exception FI.Injected_crash _ -> true in
  let replay ~seed k =
    let m = S.create ~seed in
    FI.arm (S.plane m) ~site:FI.site_durable_step (FI.On_nth k);
    m
  in
  (* Pass 0: the window opens at [mark] (or at the start) and closes
     when the workload ends; then one clean crash after the workload. *)
  let m0 = S.create ~seed in
  let first = ref 0 and fence0 = ref 0 in
  S.run m0 ~mark:(fun () ->
      first := evals m0;
      fence0 := sfences m0);
  let last = evals m0 in
  let steps = last - !first and fences = sfences m0 - !fence0 in
  if steps = 0 then fail "" 0 "the workload crossed no durable step";
  S.recover m0;
  let recovery_steps = evals m0 - last in
  S.check m0 ~fail:(fail "" 0);
  (* A replay that loses power at window boundary [k]; [arm] adds damage. *)
  let crashes = ref 0 in
  let crash_at ~seed ~arm k =
    let m = replay ~seed k in
    arm (S.plane m);
    incr crashes;
    if not (crashed (fun () -> S.run m ~mark:ignore)) then fail "" k "durable step never fired";
    m
  in
  for k = !first + 1 to last do
    let m = crash_at ~seed ~arm:ignore k in
    S.recover m;
    S.check m ~fail:(fail "" k)
  done;
  (* Crash inside recovery: the workload completes, power fails, and
     fails again at the j-th boundary recovery crosses. Recovering once
     more must give what one clean recovery gives. *)
  for j = 1 to recovery_steps do
    let m = replay ~seed (last + j) in
    if crashed (fun () -> S.run m ~mark:ignore) || not (crashed (fun () -> S.recover m)) then
      fail "recovery " j "the crash missed recovery";
    S.recover m;
    S.check m ~fail:(fail "recovery " j)
  done;
  (* Damage arms: the site fires while the workload runs, then power
     fails at sampled boundaries. Losses are allowed; undetected damage
     is not. *)
  let run_arm d =
    let found = ref 0 in
    let pass ~stride ~p ~salt =
      let k = ref (!first + 1) in
      while !k <= last do
        (* A fresh plane seed per boundary: with a shared seed every run
           draws the same damage pattern, and one unlucky trajectory
           (all damage healed by later flushes or the redo pass) would
           blind the whole arm. *)
        let arm plane = FI.arm plane ~site:d.site (FI.Prob p) in
        let m = crash_at ~seed:(seed + (salt * !k)) ~arm !k in
        (* The damage happened while power was on; recovery itself runs
           on healthy hardware. *)
        FI.disarm (S.plane m) ~site:d.site;
        FI.disarm (S.plane m) ~site:FI.site_durable_step;
        S.recover m;
        found := !found + S.check_damaged m ~fail:(fail "" !k);
        k := !k + stride
      done
    in
    pass ~stride:(max 1 (steps / 4)) ~p:d.p ~salt:997;
    (* Damage can legitimately land only on lines a later flush or the
       recovery redo pass rewrites; escalate (denser boundaries, hotter
       injection, new seeds) before concluding the detectors are blind. *)
    if !found = 0 then pass ~stride:(max 1 (steps / 8)) ~p:(min 0.9 (3.0 *. d.p)) ~salt:1009;
    if !found = 0 then fail "" 0 (d.label ^ " arm: no crash produced a detected loss");
    (d.label, !found)
  in
  let detections = List.map run_arm S.damage in
  { steps; fences; crashes = !crashes; recovery_steps; detections; violations = List.rev !violations }

let report_to_json r =
  let int n = Sim.Json.Int n in
  Sim.Json.Obj
    ([ ("steps", int r.steps); ("fences", int r.fences); ("crashes", int r.crashes) ]
    @ List.map (fun (arm, n) -> (arm ^ "_detections", int n)) r.detections
    @ [ ("violations", int (List.length r.violations)) ])

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
  | _ :: _, [] -> false

let chaos_config =
  {
    Os.Kernel.default_config with
    Os.Kernel.dram_bytes = Sim.Units.mib 8;
    nvm_bytes = Sim.Units.mib 8;
    (* SMP so a lost shootdown ack has a victim: the tlb plan migrates
       between access and unmap, making the IPI round target a remote
       core that really caches the pages. *)
    cores = 4;
  }

let machine ~seed =
  let kernel = Os.Kernel.create ~config:chaos_config () in
  let plane = FI.create ~seed ~stats:(Os.Kernel.stats kernel) () in
  Sim.Trace.attach_faults (Os.Kernel.trace kernel) plane;
  (kernel, Fom.create kernel (), plane)

(* ------------------------------------------------------------------ *)
(* WAL subject: a bare NVM machine, no kernel.                         *)
(* ------------------------------------------------------------------ *)

let wal_capacity = Sim.Units.kib 16

(* Deterministic payloads with lengths that straddle cache-line and
   word boundaries, so flushes cover 1..2 lines. *)
let wal_payloads ~records ~seed =
  let rng = Sim.Rng.create ~seed in
  let acc = ref [] in
  for i = 0 to records - 1 do
    let len = 5 + Sim.Rng.int rng 76 in
    acc := String.make len (Char.chr (Char.code 'a' + (i mod 26))) :: !acc
  done;
  List.rev !acc

let explore_wal ?(records = 6) ?(seed = 7) () =
  let payloads = wal_payloads ~records ~seed in
  let module S = struct
    (* [acked] is newest first; [back] is the log recovery rebuilt. *)
    type t = {
      plane : FI.t;
      stats : Sim.Stats.t;
      nvm : Physmem.Nvm.t;
      base : int;
      mutable acked : string list;
      mutable back : Fs.Wal.t option;
    }

    let create ~seed =
      let clock = Sim.Clock.create Sim.Cost_model.default in
      let stats = Sim.Stats.create () in
      let trace = Sim.Trace.create ~clock () in
      let mem =
        Physmem.Phys_mem.create ~clock ~stats ~trace ~dram_bytes:(Sim.Units.mib 1)
          ~nvm_bytes:(Sim.Units.mib 1) ()
      in
      let plane = FI.create ~seed ~stats () in
      Sim.Trace.attach_faults trace plane;
      let base = Physmem.Frame.to_addr (Physmem.Phys_mem.dram_frames mem) in
      { plane; stats; nvm = Physmem.Nvm.create mem; base; acked = []; back = None }

    let plane m = m.plane
    let stats m = m.stats

    let run m ~mark:_ =
      let wal = Fs.Wal.create ~nvm:m.nvm ~base:m.base ~capacity:wal_capacity in
      List.iter
        (fun p ->
          match Fs.Wal.append wal p with
          | Ok () -> m.acked <- p :: m.acked
          | Error Fs.Wal.Wal_full ->
            invalid_arg "Chaos.explore_wal: workload exceeds the WAL capacity")
        payloads

    let recover m =
      Physmem.Nvm.crash m.nvm;
      m.back <- Some (Fs.Wal.recover ~nvm:m.nvm ~base:m.base ~capacity:wal_capacity)

    let check m ~fail =
      let back = Option.get m.back in
      let recovered = Fs.Wal.entries back and acked = List.rev m.acked in
      (* Committed-prefix durability: every acknowledged append survives.
         Recovery may additionally keep the in-flight record when the
         crash hit the post-marker fence — the record was durable, only
         the acknowledgement was lost — which is why [recovered] may run
         one past [acked]. *)
      if not (is_prefix acked recovered) then
        fail
          (Printf.sprintf "acknowledged record lost (committed %d, recovered %d)"
             (List.length acked) (List.length recovered));
      (* No torn record: whatever recovery kept is a clean prefix of what
         the workload wrote, byte for byte. *)
      if not (is_prefix recovered payloads) then
        fail (Printf.sprintf "recovered log torn or reordered (%d records)" (List.length recovered));
      (* The recovered log must remain usable. *)
      ignore (Fs.Wal.append back "post-recovery")

    let damage = []
    let check_damaged _ ~fail:_ = 0
  end in
  explore (module S) ~seed

(* ------------------------------------------------------------------ *)
(* File-system subject: kernel + FOM, crash inside journaled ops.      *)
(* ------------------------------------------------------------------ *)

let fs_payload i = Printf.sprintf "chaos-%02d" i

let explore_fs ?(files = 5) ?(seed = 11) () =
  let module S = struct
    (* [made] is newest first; [masters] is the master count when power
       failed, [report] what the last recovery said. *)
    type t = {
      kernel : Os.Kernel.t;
      fom : Fom.t;
      plane : FI.t;
      mutable made : (Fom.region * bool * int) list;
      mutable masters : int;
      mutable report : Persistence.report option;
    }

    let create ~seed =
      let kernel, fom, plane = machine ~seed in
      { kernel; fom; plane; made = []; masters = 0; report = None }

    let plane m = m.plane
    let stats m = Os.Kernel.stats m.kernel

    (* Alternate persistent named files and volatile temporaries; [made]
       records each region the moment its data write completed, so a
       crash mid-allocation leaves the in-flight file untracked (recovery
       may legitimately keep or drop it). *)
    let run m ~mark:_ =
      let proc = Os.Kernel.create_process m.kernel () in
      for i = 1 to files do
        let persistent = i mod 2 = 1 in
        let r =
          if persistent then
            Fom.alloc m.fom proc ~name:(Printf.sprintf "/chaos%d" i)
              ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ()
          else Fom.alloc m.fom proc ~len:(Sim.Units.kib 16) ~prot:Hw.Prot.rw ()
        in
        Fs.Memfs.write_file (Fom.fs m.fom) r.Fom.ino ~off:0 (fs_payload i);
        m.made <- (r, persistent, i) :: m.made
      done

    let recover m =
      m.masters <- Shared_pt.master_count (Fom.shared_pt m.fom);
      m.report <- Some (Persistence.crash_and_recover m.fom)

    let check m ~fail =
      let { Persistence.masters_kept = kept; masters_dropped = dropped; _ } = Option.get m.report in
      (* Master pruning is total: every pre-crash master was either kept
         (its file survived) or dropped, and a second prune finds nothing
         — masters are pruned iff their file died, exactly once. *)
      if kept + dropped <> m.masters then
        fail
          (Printf.sprintf "master accounting: %d before, %d kept + %d dropped" m.masters kept
             dropped);
      let fs = Fom.fs m.fom in
      if Shared_pt.prune_dead (Fom.shared_pt m.fom) ~fs <> 0 then
        fail "recovery left masters pointing at dead files";
      List.iter
        (fun (r, persistent, i) ->
          match (Fs.Memfs.lookup fs r.Fom.path, persistent) with
          | Some ino, true ->
            let want = fs_payload i in
            let got =
              Bytes.to_string (Fs.Memfs.read_file fs ino ~off:0 ~len:(String.length want))
            in
            if not (String.equal got want) then
              fail (Printf.sprintf "persistent %s corrupted (%S <> %S)" r.Fom.path got want)
          | None, true -> fail (Printf.sprintf "persistent %s lost by recovery" r.Fom.path)
          | Some _, false -> fail (Printf.sprintf "volatile %s survived recovery" r.Fom.path)
          | None, false -> ())
        (List.rev m.made);
      List.iter (fun v -> fail (Os.Check.violation_to_string v)) (Os.Check.run m.kernel);
      (* Graceful continuation: the recovered machine still allocates. *)
      let p2 = Os.Kernel.create_process m.kernel () in
      let r2 = Fom.alloc m.fom p2 ~len:(Sim.Units.kib 4) ~prot:Hw.Prot.rw () in
      Fom.free m.fom p2 r2

    let damage = []
    let check_damaged _ ~fail:_ = 0
  end in
  explore (module S) ~seed

(* ------------------------------------------------------------------ *)
(* Named fault plans: sustained probabilistic injection + degradation. *)
(* ------------------------------------------------------------------ *)

type plan_outcome = {
  plan : string;
  seed : int;
  sites : (string * int * int) list;
  injected_total : int;
  enomem : int;
  enospc : int;
  retried : int;
  reclaimed_frames : int;
  ooms : int;
  checks : Os.Check.violation list;
}

let plans = [ "alloc"; "nvm"; "quota"; "tlb"; "all" ]

(* The tlb plan intentionally breaks coherence: the checker is expected
   to find the stale entries, so its violations are the pass condition,
   not a failure. *)
let plan_expects_violations = function "tlb" | "all" -> true | _ -> false

let arm_plan plane plan =
  let arm site mode = FI.arm plane ~site mode in
  let alloc () =
    arm FI.site_frame_alloc_fail (FI.Prob 0.05);
    arm FI.site_zero_cache_empty (FI.Prob 0.25)
  in
  let nvm () =
    arm FI.site_nvm_torn_line (FI.Prob 0.05);
    arm FI.site_nvm_bit_flip (FI.Prob 0.05);
    arm FI.site_wal_partial_flush (FI.Prob 0.1)
  in
  let quota () = arm FI.site_quota_enospc (FI.Prob 0.2) in
  let tlb () = arm FI.site_tlb_ack_lost (FI.Prob 0.5) in
  match plan with
  | "alloc" -> alloc ()
  | "nvm" -> nvm ()
  | "quota" -> quota ()
  | "tlb" -> tlb ()
  | "all" ->
    alloc ();
    nvm ();
    quota ();
    tlb ()
  | p ->
    invalid_arg
      (Printf.sprintf "Chaos.run_plan: unknown plan %S (expected one of %s)" p
         (String.concat ", " plans))

let run_guarded ~plan ~seed ~retried body =
  let kernel, fom, plane = machine ~seed in
  let enomem = ref 0 and enospc = ref 0 in
  (* Typed errors are the degradation contract: anything else escaping
     a faulted operation is a real bug and propagates to the caller. *)
  let guard f =
    try f () with
    | Sim.Errno.Error (Sim.Errno.ENOMEM, _) -> incr enomem
    | Sim.Errno.Error (Sim.Errno.ENOSPC, _) -> incr enospc
  in
  let checks = body kernel fom plane guard in
  let stats = Os.Kernel.stats kernel in
  {
    plan;
    seed;
    sites = FI.totals plane;
    injected_total = FI.injected_total plane;
    enomem = !enomem;
    enospc = !enospc;
    retried = Sim.Stats.get stats retried;
    reclaimed_frames = Sim.Stats.get stats "alloc_reclaimed_frames";
    ooms = Sim.Stats.get stats "alloc_oom";
    checks;
  }

let run_plan ?(seed = 1) ?(rounds = 16) ~plan () =
  run_guarded ~plan ~seed ~retried:"alloc_retry_reclaim" @@ fun kernel fom plane guard ->
  arm_plan plane plan;
  let p1 = Os.Kernel.create_process kernel () in
  let p2 = Os.Kernel.create_process kernel () in
  let cores = chaos_config.Os.Kernel.cores in
  for i = 1 to rounds do
    guard (fun () ->
        let len = Sim.Units.kib 64 in
        (* Touch the pages on one core, unmap from another: the shootdown
           must now cross cores, so a dropped ack (tlb plan) leaves a
           stale entry the final checker can catch. *)
        Os.Kernel.migrate kernel p1 ~core:(i mod cores);
        let va =
          Os.Kernel.mmap_anon kernel p1 ~len ~prot:Hw.Prot.rw ~populate:false
        in
        ignore
          (Os.Kernel.access_range kernel p1 ~va ~len ~write:true
             ~stride:Sim.Units.page_size);
        Os.Kernel.migrate kernel p1 ~core:((i + 1) mod cores);
        Os.Kernel.munmap kernel p1 ~va ~len);
    guard (fun () ->
        let len = Sim.Units.kib 16 in
        let va =
          Os.Kernel.mmap_anon kernel p2 ~len ~prot:Hw.Prot.rw ~populate:true
        in
        Os.Kernel.munmap kernel p2 ~va ~len);
    ignore (Os.Kernel.background_zero kernel ~budget_frames:8);
    guard (fun () ->
        let r =
          Fom.alloc fom p1 ~name:(Printf.sprintf "/plan%d" i)
            ~persistence:Fs.Inode.Persistent ~len:(Sim.Units.kib 32)
            ~prot:Hw.Prot.rw ()
        in
        ignore
          (Fom.access_range fom p1 ~va:r.Fom.va ~len:r.Fom.len ~write:true
             ~stride:Sim.Units.page_size);
        Fom.free fom p1 r)
  done;
  (* Pressure finale: overcommit the anonymous pool ~3x. Injected faults
     aside, allocation now fails for real, so the reclaim-then-retry
     pass (and, if reclaim cannot keep up, the typed OOM) is exercised
     under genuine exhaustion, not just simulated refusals. *)
  let hog = Os.Kernel.create_process kernel () in
  guard (fun () ->
      for _ = 1 to 12 do
        let len = Sim.Units.mib 1 in
        let va =
          Os.Kernel.mmap_anon kernel hog ~len ~prot:Hw.Prot.rw ~populate:false
        in
        ignore
          (Os.Kernel.access_range kernel hog ~va ~len ~write:true
             ~stride:Sim.Units.page_size)
      done);
  Os.Check.run kernel
