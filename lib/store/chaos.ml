(* Crash/torn-write exploration and the "store" fault plan.

   The store is a subject of O1mem.Chaos.explore. Its workload builds
   the store, preloads and checkpoints it, then runs a deterministic
   mixed put/delete/grow burst; the explored window is the burst
   (boundaries crossed by creation and preload are excluded). Recovery
   runs through O1mem.Persistence, which runs the store's hooks, and
   the oracle demands the committed-prefix state.

   Two damage arms ride on sampled boundaries: torn lines and bit flips
   armed probabilistically while the burst runs. Those crashes may lose
   more than the in-flight transaction — but every loss must be
   *detected* (a WAL/manifest truncation or an EIO on read), never
   served as silently wrong data: any value the store does return must
   be one the workload actually wrote. *)

module FI = Sim.Fault_inject

(* --- the deterministic workload ------------------------------------ *)

type wop =
  | W_put of string * string
  | W_delete of string
  | W_set_root of string * string
  | W_clear_root of string

let key i = Printf.sprintf "key%02d" i

(* Version v of key i: length grows with v so re-puts change size class
   and slots move. *)
let value i v = String.make (24 + (40 * v)) (Char.chr (Char.code 'a' + ((i + v) mod 26)))

(* Transaction c of the burst: two puts (one growing re-put), a delete on
   even rounds, and root churn. The delete target is distinct from both
   puts for any keys >= 4, so the root set in the same transaction always
   names a live key. *)
let ops_of_txn ~keys c =
  let a = 2 * c mod keys and b = ((2 * c) + 1) mod keys in
  let d = ((2 * c) + 3) mod keys in
  [ W_put (key a, value a c); W_put (key b, value b c) ]
  @ (if c mod 2 = 0 then [ W_delete (key d) ] else [])
  @ [ W_set_root ("head", key a) ]
  @ if c mod 3 = 0 then [ W_set_root ("aux", key b) ] else [ W_clear_root "aux" ]

let preload_ops ~keys =
  List.init keys (fun i -> W_put (key i, value i 0)) @ [ W_set_root ("head", key 0) ]

(* Host-side mirror of the store semantics (delete clears referencing
   roots), applied transaction by transaction; mirrors.(c) is the state
   after commit c (0 = after preload + checkpoint). *)
let mirror_states ~keys ~txns =
  let objs = Hashtbl.create 16 and roots = Hashtbl.create 4 in
  let apply = function
    | W_put (k, v) -> Hashtbl.replace objs k v
    | W_delete k ->
      Hashtbl.remove objs k;
      let dead = Hashtbl.fold (fun r k' acc -> if k' = k then r :: acc else acc) roots [] in
      List.iter (Hashtbl.remove roots) dead
    | W_set_root (r, k) -> Hashtbl.replace roots r k
    | W_clear_root r -> Hashtbl.remove roots r
  in
  let snap () =
    ( Hashtbl.fold (fun k v acc -> (k, v) :: acc) objs [] |> List.sort compare,
      Hashtbl.fold (fun r k acc -> (r, k) :: acc) roots [] |> List.sort compare )
  in
  List.iter apply (preload_ops ~keys);
  Array.init (txns + 1) (fun c ->
      if c > 0 then List.iter apply (ops_of_txn ~keys c);
      snap ())

let apply_store st = function
  | W_put (k, v) -> Kv.put st k v
  | W_delete k -> Kv.delete st k
  | W_set_root (r, k) -> Kv.set_root st r k
  | W_clear_root r -> Kv.clear_root st r

let state_of st =
  let objs = List.map (fun k -> (k, Option.get (Kv.get st k))) (Kv.keys st) in
  (objs, Kv.roots st)

let describe (objs, roots) =
  Printf.sprintf "%d object(s), %d root(s)" (List.length objs) (List.length roots)

let check_os kernel ~fail =
  List.iter (fun v -> fail (Os.Check.violation_to_string v)) (Os.Check.run kernel)

(* Post-recovery usability: the store must still accept transactions and
   serve fresh writes exactly. The full checksum sweep only applies to
   clean crashes — damage arms intentionally corrupt values, and their
   detection is counted through EIO reads instead. *)
let probe_usable st ~verify ~fail =
  ignore (Kv.begin_txn st);
  Kv.put st "probe" "post-recovery";
  Kv.commit st;
  (match Kv.get st "probe" with
  | Some "post-recovery" -> ()
  | _ -> fail "recovered store does not serve a fresh write"
  | exception _ -> fail "recovered store cannot serve a fresh write");
  if verify then List.iter (fun v -> fail (Os.Check.violation_to_string v)) (Kv.verify st)

let explore_store ?(keys = 6) ?(txns = 3) ?(seed = 17) () =
  if keys < 4 then invalid_arg "Chaos.explore_store: keys must be >= 4";
  let mirrors = mirror_states ~keys ~txns in
  let module S = struct
    type t = {
      kernel : Os.Kernel.t;
      fom : O1mem.Fom.t;
      plane : FI.t;
      mutable store : Kv.t option;
      mutable acked : int;  (** transactions of the burst acknowledged *)
      mutable hook_ran : bool;
      mutable baseline : string option;  (** a completed burst that missed the final mirror *)
    }

    let create ~seed =
      let kernel, fom, plane = O1mem.Chaos.machine ~seed in
      { kernel; fom; plane; store = None; acked = 0; hook_ran = false; baseline = None }

    let plane m = m.plane
    let stats m = Os.Kernel.stats m.kernel

    let run m ~mark =
      let proc = Os.Kernel.create_process m.kernel () in
      let st = Kv.create m.fom proc ~name:"/kv" () in
      m.store <- Some st;
      ignore (Kv.begin_txn st);
      List.iter (apply_store st) (preload_ops ~keys);
      Kv.commit st;
      Kv.checkpoint st;
      mark ();
      for c = 1 to txns do
        ignore (Kv.begin_txn st);
        List.iter (apply_store st) (ops_of_txn ~keys c);
        Kv.commit st;
        m.acked <- c
      done;
      (* Before any crash, the completed burst must be the final mirror,
         or the explorer proves nothing. *)
      match state_of st with
      | got when got = mirrors.(txns) -> ()
      | got ->
        let want = describe mirrors.(txns) in
        m.baseline <- Some ("baseline mismatch: store has " ^ describe got ^ ", mirror " ^ want)

    let recover m =
      let report = O1mem.Persistence.crash_and_recover m.fom in
      m.hook_ran <- List.mem_assoc "store/kv" report.O1mem.Persistence.hook_records

    (* The recovered state is the committed prefix: mirror [acked], or
       [acked+1] when the crash fell between the commit record becoming
       durable and the acknowledgement (redo replays the in-flight
       transaction). *)
    let check m ~fail =
      Option.iter fail m.baseline;
      if not m.hook_ran then fail "recovery never ran the store hook";
      match m.store with
      | None -> fail "crash before the store existed (boundary accounting is off)"
      | Some st ->
        let got = state_of st and want = mirrors.(m.acked) in
        if not (got = want || (m.acked < txns && got = mirrors.(m.acked + 1))) then
          fail
            (Printf.sprintf "recovered %s; committed prefix has %s (acked %d)" (describe got)
               (describe want) m.acked);
        check_os m.kernel ~fail;
        probe_usable st ~verify:true ~fail;
        Kv.detach st

    let damage =
      [
        { O1mem.Chaos.label = "torn"; site = FI.site_nvm_torn_line; p = 0.35 };
        { O1mem.Chaos.label = "flip"; site = FI.site_nvm_bit_flip; p = 0.2 };
      ]

    let check_damaged m ~fail =
      match m.store with
      | None ->
        fail "crash before the store existed (damage arm)";
        0
      | Some st ->
        let found = ref (Kv.recovery_truncations st) in
        List.iter
          (fun key ->
            match Kv.get st key with
            | None -> ()
            | Some v ->
              (* Every put lands in the mirror of its transaction, so the
                 mirrors hold every value the workload wrote. *)
              if not (Array.exists (fun (objs, _) -> List.mem (key, v) objs) mirrors) then
                fail (Printf.sprintf "key %S recovered with a value that was never written" key)
            | exception Sim.Errno.Error (Sim.Errno.EIO, _) -> incr found)
          (Kv.keys st);
        check_os m.kernel ~fail;
        probe_usable st ~verify:false ~fail;
        Kv.detach st;
        !found
  end in
  O1mem.Chaos.explore (module S) ~seed

(* --- the "store" fault plan ----------------------------------------- *)

(* Sustained probabilistic injection at the store's own sites while a
   transaction mix runs, a mid-run crash/recover, then the ENOSPC finale:
   a value bigger than the WAL can ever hold must fail typed, with the
   store intact. Returned as an O1mem.Chaos.plan_outcome so the faults
   CLI prints every plan uniformly. *)
let run_plan ?(seed = 1) ?(rounds = 12) () =
  O1mem.Chaos.run_guarded ~plan:"store" ~seed ~retried:"store_alloc_retry"
  @@ fun kernel fom plane guard ->
  FI.arm plane ~site:FI.site_store_alloc (FI.Prob 0.15);
  FI.arm plane ~site:FI.site_store_commit (FI.Prob 0.1);
  FI.arm plane ~site:FI.site_store_apply (FI.Prob 0.15);
  let proc = Os.Kernel.create_process kernel () in
  let st = Kv.create fom proc ~name:"/kv" () in
  (* An injected commit abort is a typed EIO: the transaction rolled back. *)
  let guard f = guard (fun () -> try f () with Sim.Errno.Error (Sim.Errno.EIO, _) -> ()) in
  for i = 1 to rounds do
    guard (fun () ->
        ignore (Kv.begin_txn st);
        Kv.put st (key (i mod 8)) (value (i mod 8) (i mod 5));
        Kv.put st (Printf.sprintf "round%02d" i) (String.make (64 + (i * 16 mod 512)) 'r');
        if i mod 3 = 0 then Kv.delete st (key ((i + 1) mod 8));
        Kv.set_root st "latest" (Printf.sprintf "round%02d" i);
        Kv.commit st);
    if Kv.txn_live st then Kv.abort st;
    if i mod 4 = 0 then guard (fun () -> Kv.checkpoint st)
  done;
  (* Mid-plan power loss: the store must come back and keep serving. *)
  ignore (O1mem.Persistence.crash_and_recover fom);
  guard (fun () ->
      ignore (Kv.begin_txn st);
      Kv.put st "after-crash" "still here";
      Kv.commit st);
  (* ENOSPC finale: a transaction that cannot fit the WAL even after the
     checkpoint-and-retry pass must fail typed and leave no trace. Only
     its ENOSPC is counted; an ENOMEM here is dropped. *)
  guard (fun () ->
      try
        ignore (Kv.begin_txn st);
        for j = 1 to 24 do
          Kv.put st (Printf.sprintf "huge%02d" j) (String.make (Sim.Units.kib 8) 'h')
        done;
        Kv.commit st
      with Sim.Errno.Error (Sim.Errno.ENOMEM, _) -> ());
  if Kv.txn_live st then Kv.abort st;
  let partial = List.filter (fun k -> String.length k >= 4 && String.sub k 0 4 = "huge") (Kv.keys st) in
  Os.Check.run kernel @ Kv.verify st
  @
  if partial <> [] then
    [
      {
        Os.Check.check = "store_degrade";
        detail = Printf.sprintf "failed bulk commit left %d partial object(s)" (List.length partial);
      };
    ]
  else []
