(* kv_zipf: Store.Kv on the file-only heap. 4096 keys are preloaded and
   checkpointed during setup; the loop is a 50/50 mix of single-key gets
   and transactions of 1-4 puts over zipfian keys (theta 0.99); one
   crash-and-recover follows the loop. A host-side mirror of committed
   state checks every get and the recovered store. *)

module K = Os.Kernel
module M = Measure

let keys = 4096
let requests_per_round = 20_000
let theta = 0.99
let min_value = 64
let max_value = 255
let preload_batch = 64
let get_share = 0.5

(* Zipf ranks drawn by binary search over a CDF table built once per
   input, not with [Sim.Rng.zipf], which recomputes its zeta sum on every
   draw. *)
let zipf_cdf ~n ~theta =
  let w = Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) theta) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc /. total)
    w

let draw cdf rng =
  let u = Sim.Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) > u then hi := mid else lo := mid + 1
  done;
  !lo

type input = {
  key_names : string array;
  preload : string array;  (** initial value of each key *)
  gets : int array;  (** key of each get, or -1 for a transaction *)
  txn_keys : int array array;  (** keys put by each transaction *)
  txn_vals : string array array;
}

let value rng =
  String.init (Sim.Rng.int_in rng ~lo:min_value ~hi:max_value) (fun _ ->
      Char.chr (97 + Sim.Rng.int rng 26))

let generate ~seed ~requests =
  let rng = Sim.Rng.create ~seed in
  let key_names = Array.init keys (Printf.sprintf "user%05d") in
  let preload = Array.init keys (fun _ -> value rng) in
  (* Hot ranks land on scattered keys. *)
  let perm = Array.init keys Fun.id in
  Sim.Rng.shuffle rng perm;
  let cdf = zipf_cdf ~n:keys ~theta in
  let key () = perm.(draw cdf rng) in
  let gets = Array.make requests (-1) in
  let txn_keys = Array.make requests [||] and txn_vals = Array.make requests [||] in
  for i = 0 to requests - 1 do
    if Sim.Rng.float rng < get_share then gets.(i) <- key ()
    else begin
      let n = Sim.Rng.int_in rng ~lo:1 ~hi:4 in
      txn_keys.(i) <- Array.init n (fun _ -> key ());
      txn_vals.(i) <- Array.init n (fun _ -> value rng)
    end
  done;
  { key_names; preload; gets; txn_keys; txn_vals }

let boot input =
  let k = Churn_bench.machine () in
  let baseline = Alloc.Buddy.free_frames_count (K.buddy k) in
  let fom = O1mem.Fom.create k () in
  let p = K.create_process k () in
  (* The manifest must hold a snapshot of every key; the WAL keeps its
     default size, so it fills and checkpoints during the loop. *)
  let kv = Store.Kv.create fom p ~manifest_bytes:(Sim.Units.mib 1) ~name:"/kv" () in
  let mirror = Hashtbl.create keys in
  let i = ref 0 in
  while !i < keys do
    ignore (Store.Kv.begin_txn kv);
    for j = !i to min keys (!i + preload_batch) - 1 do
      Store.Kv.put kv input.key_names.(j) input.preload.(j);
      Hashtbl.replace mirror j input.preload.(j)
    done;
    Store.Kv.commit kv;
    i := !i + preload_batch
  done;
  Store.Kv.checkpoint kv;
  (k, baseline, fom, kv, mirror)

let setup ~seed () =
  let input = generate ~seed ~requests:requests_per_round in
  (input, boot input)

let run_round ~seed ~traced =
  let setup_s, (input, (k, baseline, fom, kv, mirror)) = M.time_setup (setup ~seed) in
  let requests = Array.length input.gets in
  let clock = K.clock k and mem = K.mem k and buddy = K.buddy k in
  let op_ns = Array.make requests 0 and op_cycles = Array.make requests 0 in
  let tr =
    if traced then
      Some
        (M.new_trace
           [
             M.span "store.get" ~capacity:requests;
             M.span "store.commit" ~capacity:requests;
             M.span "fom.recover" ~capacity:1;
           ])
    else None
  in
  let sp_get, sp_commit =
    match tr with
    | Some tr -> (M.find_span tr "store.get", M.find_span tr "store.commit")
    | None ->
      let dummy = M.span "" ~capacity:0 in
      (dummy, dummy)
  in
  let failed = ref 0 and errors = ref [] in
  let fail msg =
    incr failed;
    if List.length !errors < 20 then errors := msg :: !errors
  in
  let bias = Lazy.force M.words_bias in
  let words = ref 0 in
  let before = M.counter_snapshot k in
  for i = 0 to requests - 1 do
    let g = input.gets.(i) in
    let w0 = M.words () in
    let c0 = Sim.Clock.now clock in
    let t0 = M.now_ns () in
    (* [Ok v]: a get's result, or [Ok None] for a committed transaction. *)
    let result =
      try
        if g >= 0 then begin
          let key = input.key_names.(g) in
          if traced then begin
            let s0 = M.now_ns () and sc = Sim.Clock.now clock in
            let v = Store.Kv.get kv key in
            M.record sp_get ~ns:(M.now_ns () - s0) ~cycles:(Sim.Clock.now clock - sc);
            Ok v
          end
          else Ok (Store.Kv.get kv key)
        end
        else begin
          let ks = input.txn_keys.(i) and vs = input.txn_vals.(i) in
          ignore (Store.Kv.begin_txn kv);
          for j = 0 to Array.length ks - 1 do
            Store.Kv.put kv input.key_names.(ks.(j)) vs.(j)
          done;
          if traced then begin
            let s0 = M.now_ns () and sc = Sim.Clock.now clock in
            Store.Kv.commit kv;
            M.record sp_commit ~ns:(M.now_ns () - s0) ~cycles:(Sim.Clock.now clock - sc)
          end
          else Store.Kv.commit kv;
          Ok None
        end
      with Sim.Errno.Error (e, what) ->
        if Store.Kv.txn_live kv then Store.Kv.abort kv;
        Error (Printf.sprintf "request %d: %s (%s)" i (Sim.Errno.to_string e) what)
    in
    let t1 = M.now_ns () in
    let c1 = Sim.Clock.now clock in
    let w1 = M.words () in
    op_ns.(i) <- t1 - t0;
    op_cycles.(i) <- c1 - c0;
    words := !words + (w1 - w0 - bias);
    (match result with
    | Error msg -> fail msg
    | Ok got when g >= 0 ->
      if got <> Hashtbl.find_opt mirror g then
        fail (Printf.sprintf "request %d: get %s disagrees with committed state" i input.key_names.(g))
    | Ok _ ->
      Array.iteri (fun j key -> Hashtbl.replace mirror key input.txn_vals.(i).(j)) input.txn_keys.(i));
    match tr with
    | Some tr ->
      tr.M.free_frames_min <- min tr.M.free_frames_min (Alloc.Buddy.free_frames_count buddy);
      if i mod M.resident_sample_every = 0 || i = requests - 1 then
        tr.M.resident_frames_peak <- max tr.M.resident_frames_peak (M.resident_frames mem)
    | None -> ()
  done;
  let after = M.counter_snapshot k in
  let wal_peak = Sim.Stats.gauge_hwm (K.stats k) "store_wal_bytes" in
  (* Crash right after the loop, then recover through the FOM hooks. *)
  O1mem.Persistence.crash fom;
  let sc = Sim.Clock.now clock and s0 = M.now_ns () in
  let report = O1mem.Persistence.recover fom in
  (match tr with
  | Some tr ->
    M.record (M.find_span tr "fom.recover") ~ns:(M.now_ns () - s0)
      ~cycles:(Sim.Clock.now clock - sc)
  | None -> ());
  List.iter fail (M.violations_to_errors "after recovery" (Store.Kv.verify kv));
  Hashtbl.iter
    (fun key v ->
      match Store.Kv.get kv input.key_names.(key) with
      | Some got when got = v -> ()
      | _ -> fail (Printf.sprintf "after recovery: %s lost its committed value" input.key_names.(key))
      | exception Sim.Errno.Error (e, _) ->
        fail (Printf.sprintf "after recovery: %s: %s" input.key_names.(key) (Sim.Errno.to_string e)))
    mirror;
  if List.length (Store.Kv.keys kv) <> Hashtbl.length mirror then
    fail "after recovery: the store holds keys never committed";
  let replayed = Store.Kv.last_replayed kv in
  Store.Kv.detach kv;
  O1mem.Fom.exit_process fom (Store.Kv.proc kv);
  List.iter fail (M.violations_to_errors "after teardown" (Os.Check.run k));
  {
    M.setup_s;
    attempted = requests;
    failed = !failed;
    op_ns;
    op_cycles;
    words = !words;
    frames_leaked = M.frames_leaked k ~baseline;
    counters = Sim.Stats.diff ~before ~after
      @ [
          ("master_frames_held", M.master_frames fom);
          ("hwm.store_wal_bytes", wal_peak);
          ("store.replayed", replayed);
          ("recovery_cycles", report.O1mem.Persistence.recovery_cycles);
        ];
    trace = tr;
    errors = List.rev !errors;
  }
