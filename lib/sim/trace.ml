(* Structured tracing: a bounded ring of events plus per-operation latency
   histograms, all in virtual cycles. The [disabled] sentinel lets components
   default a [trace] field to a shared no-op without optional plumbing. *)

type event = {
  seq : int;
  op : string;
  core : int;
  start : int;
  finish : int;
  arg : int;
  outcome : string;
}

(* The event ring is kept as parallel arrays, like [Profile]'s span
   ring: recording writes six slots and allocates nothing. [event]
   records are built only when [events] reads the ring; an event's
   [seq] is its recording index, so it needs no slot of its own. *)
type t = {
  clock : Clock.t option; (* None = disabled sentinel *)
  ev_op : string array;
  ev_core : int array;
  ev_start : int array;
  ev_finish : int array;
  ev_arg : int array;
  ev_outcome : string array;
  mutable recorded : int; (* total events ever recorded, ring or not *)
  latencies : (string, Histogram.t) Hashtbl.t;
  mutable profile : Profile.t; (* span-tree profiler, if attached *)
  mutable faults : Fault_inject.t; (* fault-injection plane, if attached *)
  mutable causal : Causal.t; (* cross-core causal plane, if attached *)
  mutable cur_core : int; (* core executing right now, for event stamping *)
}

let default_capacity = 4096

let make clock capacity =
  {
    clock;
    ev_op = Array.make capacity "";
    ev_core = Array.make capacity 0;
    ev_start = Array.make capacity 0;
    ev_finish = Array.make capacity 0;
    ev_arg = Array.make capacity 0;
    ev_outcome = Array.make capacity "";
    recorded = 0;
    latencies = Hashtbl.create 32;
    profile = Profile.disabled;
    faults = Fault_inject.disabled;
    causal = Causal.disabled;
    cur_core = 0;
  }

let create ~clock ?(capacity = default_capacity) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  make (Some clock) capacity

let disabled = make None 0

let enabled t = t.clock <> None

let profile t = t.profile

let attach_profile t p =
  if not (enabled t) then invalid_arg "Trace.attach_profile: disabled trace";
  t.profile <- p

(* The one span combinator every instrumented hot path uses. With no
   profile attached it is a direct call of [f]: nothing is allocated. *)
let prof_span t name f = Profile.span t.profile name f

let faults t = t.faults
let causal t = t.causal

let attach_causal t c =
  if not (enabled t) then invalid_arg "Trace.attach_causal: disabled trace";
  t.causal <- c

let current_core t = t.cur_core

(* Guarded so the shared [disabled] sentinel never accumulates state
   across unrelated components. *)
let set_core t core = if enabled t then t.cur_core <- core

let capacity t = Array.length t.ev_op
let recorded t = t.recorded
let dropped t = max 0 (t.recorded - capacity t)

let latency_for t op =
  try Hashtbl.find t.latencies op
  with Not_found ->
    let h = Histogram.create () in
    Hashtbl.add t.latencies op h;
    h

let record t ~op ~start ?(arg = 0) ?(outcome = "ok") ?core () =
  match t.clock with
  | None -> ()
  | Some clock ->
    let finish = Clock.now clock in
    let i = t.recorded mod capacity t in
    t.ev_op.(i) <- op;
    t.ev_core.(i) <- (match core with Some c -> c | None -> t.cur_core);
    t.ev_start.(i) <- start;
    t.ev_finish.(i) <- finish;
    t.ev_arg.(i) <- arg;
    t.ev_outcome.(i) <- outcome;
    t.recorded <- t.recorded + 1;
    Histogram.observe (latency_for t op) (max 0 (finish - start))

let attach_faults t f =
  if not (enabled t) then invalid_arg "Trace.attach_faults: disabled trace";
  t.faults <- f;
  (* Every injection shows up as a zero-length "fault_inject" event whose
     outcome names the site. *)
  Fault_inject.set_reporter f (fun site ->
      match t.clock with
      | None -> ()
      | Some clock -> record t ~op:"fault_inject" ~start:(Clock.now clock) ~outcome:site ())

let span t ~op ?(arg = 0) ?outcome f =
  match t.clock with
  | None -> f ()
  | Some clock -> (
    let start = Clock.now clock in
    match f () with
    | v ->
      let outcome = match outcome with Some g -> g v | None -> "ok" in
      record t ~op ~start ~arg ~outcome ();
      v
    | exception e ->
      record t ~op ~start ~arg ~outcome:"raised" ();
      raise e)

let events t =
  let cap = capacity t in
  let kept = min t.recorded cap in
  let first = t.recorded - kept in
  (* oldest retained event first *)
  List.init kept (fun k ->
      let seq = first + k in
      let i = seq mod cap in
      {
        seq;
        op = t.ev_op.(i);
        core = t.ev_core.(i);
        start = t.ev_start.(i);
        finish = t.ev_finish.(i);
        arg = t.ev_arg.(i);
        outcome = t.ev_outcome.(i);
      })

let latency t op = Hashtbl.find_opt t.latencies op

let ops t =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) t.latencies []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset t =
  Array.fill t.ev_op 0 (capacity t) "";
  Array.fill t.ev_outcome 0 (capacity t) "";
  t.recorded <- 0;
  Hashtbl.reset t.latencies

let event_to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("op", Json.String e.op);
      ("core", Json.Int e.core);
      ("start", Json.Int e.start);
      ("end", Json.Int e.finish);
      ("arg", Json.Int e.arg);
      ("outcome", Json.String e.outcome);
    ]

let to_json ?(events_limit = max_int) t =
  let evs = events t in
  let total = List.length evs in
  (* Retained ring events per op: [recorded - in_ring] is how many of an
     op's events wraparound evicted, making dropped-event skew visible
     per operation instead of only in the global [dropped] count. *)
  let in_ring = Hashtbl.create 16 in
  List.iter
    (fun e ->
      Hashtbl.replace in_ring e.op (1 + Option.value (Hashtbl.find_opt in_ring e.op) ~default:0))
    evs;
  let op_summary k h =
    let hist = match Histogram.to_json h with Json.Obj fields -> fields | other -> [ ("histogram", other) ] in
    Json.Obj
      (hist
      @ [
          ("recorded", Json.Int (Histogram.count h));
          ("in_ring", Json.Int (Option.value (Hashtbl.find_opt in_ring k) ~default:0));
        ])
  in
  let evs =
    if total <= events_limit then evs
    else (* keep the newest [events_limit] events *)
      List.filteri (fun i _ -> i >= total - events_limit) evs
  in
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("capacity", Json.Int (capacity t));
      ("recorded", Json.Int t.recorded);
      ("dropped", Json.Int (dropped t));
      ("ops", Json.Obj (List.map (fun (k, h) -> (k, op_summary k h)) (ops t)));
      ("events", Json.List (List.map event_to_json evs));
    ]

(* Chrome trace-event fragments: each retained event as a complete ("X")
   slice on its core's track. Ordering is deterministic even for
   zero-cost ops stamping the same cycle: the monotonic sequence number
   breaks start-cycle ties. *)
let chrome_events t =
  events t
  |> List.sort (fun a b -> compare (a.start, a.seq) (b.start, b.seq))
  |> List.map (fun e ->
         Json.Obj
           [
             ("name", Json.String e.op);
             ("cat", Json.String "trace");
             ("ph", Json.String "X");
             ("ts", Json.Int e.start);
             ("dur", Json.Int (max 0 (e.finish - e.start)));
             ("pid", Json.Int 1);
             ("tid", Json.Int (max 0 e.core));
             ( "args",
               Json.Obj
                 [
                   ("seq", Json.Int e.seq);
                   ("arg", Json.Int e.arg);
                   ("outcome", Json.String e.outcome);
                 ] );
           ])

let pp ppf t =
  Format.fprintf ppf "@[<v>trace: %d recorded, %d dropped (capacity %d)@," t.recorded (dropped t)
    (capacity t);
  List.iter (fun (op, h) -> Format.fprintf ppf "%-24s %a@," op Histogram.pp h) (ops t);
  Format.fprintf ppf "@]"
