open Helpers

let mk ?(capacity = 4) () =
  let clock = mk_clock () in
  (Sim.Trace.create ~clock ~capacity (), clock)

let test_create_validation () =
  let clock = mk_clock () in
  Alcotest.check_raises "zero capacity" (Invalid_argument "Trace.create: capacity must be positive")
    (fun () -> ignore (Sim.Trace.create ~clock ~capacity:0 ()))

let test_ring_wraparound () =
  let tr, clock = mk () in
  for i = 1 to 6 do
    let start = Sim.Clock.now clock in
    Sim.Clock.charge clock i;
    Sim.Trace.record tr ~op:"op" ~start ~arg:i ()
  done;
  check_int "recorded counts everything" 6 (Sim.Trace.recorded tr);
  check_int "dropped = recorded - capacity" 2 (Sim.Trace.dropped tr);
  let evs = Sim.Trace.events tr in
  check_int "ring retains capacity events" 4 (List.length evs);
  Alcotest.(check (list int)) "oldest retained first, newest last" [ 3; 4; 5; 6 ]
    (List.map (fun e -> e.Sim.Trace.arg) evs);
  List.iter
    (fun e -> check_int "latency matches the charge" e.Sim.Trace.arg (e.Sim.Trace.finish - e.Sim.Trace.start))
    evs;
  (match Sim.Trace.latency tr "op" with
  | Some h -> check_int "histogram keeps even dropped samples" 6 (Sim.Histogram.count h)
  | None -> Alcotest.fail "latency histogram missing");
  Sim.Trace.reset tr;
  check_int "reset clears recorded" 0 (Sim.Trace.recorded tr);
  check_int "reset clears events" 0 (List.length (Sim.Trace.events tr))

let test_span_nesting () =
  let tr, clock = mk () in
  let v =
    Sim.Trace.span tr ~op:"outer" (fun () ->
        Sim.Clock.charge clock 5;
        let inner = Sim.Trace.span tr ~op:"inner" (fun () -> Sim.Clock.charge clock 7; 1) in
        Sim.Clock.charge clock 2;
        inner + 1)
  in
  check_int "span returns f's value" 2 v;
  let lat op =
    match Sim.Trace.latency tr op with
    | Some h -> Sim.Histogram.max_value h
    | None -> Alcotest.fail (op ^ " not recorded")
  in
  check_int "inner span charges only its own work" 7 (lat "inner");
  check_int "outer span covers inner + its own work" 14 (lat "outer");
  Alcotest.(check (list string)) "inner completes (records) before outer" [ "inner"; "outer" ]
    (List.map (fun e -> e.Sim.Trace.op) (Sim.Trace.events tr))

let test_span_outcome_and_exception () =
  let tr, clock = mk () in
  let n =
    Sim.Trace.span tr ~op:"probe" ~outcome:(fun n -> if n > 0 then "hit" else "miss") (fun () -> 3)
  in
  check_int "value through outcome mapping" 3 n;
  (try
     Sim.Trace.span tr ~op:"boom" (fun () ->
         Sim.Clock.charge clock 3;
         failwith "x")
   with Failure _ -> ());
  match Sim.Trace.events tr with
  | [ probe; boom ] ->
    check_string "mapped outcome" "hit" probe.Sim.Trace.outcome;
    check_string "exception records raised" "raised" boom.Sim.Trace.outcome;
    check_int "latency up to the raise" 3 (boom.Sim.Trace.finish - boom.Sim.Trace.start)
  | evs -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length evs))

let test_disabled_sentinel () =
  let tr = Sim.Trace.disabled in
  check_bool "disabled" false (Sim.Trace.enabled tr);
  Sim.Trace.record tr ~op:"x" ~start:0 ();
  check_int "record is a no-op" 0 (Sim.Trace.recorded tr);
  check_int "span still runs f" 9 (Sim.Trace.span tr ~op:"x" (fun () -> 9));
  check_int "no events" 0 (List.length (Sim.Trace.events tr))

let test_json_well_formed () =
  let tr, clock = mk ~capacity:8 () in
  let start = Sim.Clock.now clock in
  Sim.Clock.charge clock 11;
  Sim.Trace.record tr ~op:"needs \"escaping\"\n" ~start ~arg:4096 ~outcome:"hit" ();
  Sim.Trace.record tr ~op:"walk" ~start ~arg:2 ();
  let s = Sim.Json.to_string ~pretty:true (Sim.Trace.to_json tr) in
  match Sim.Json.of_string s with
  | Error e -> Alcotest.fail ("trace JSON does not parse: " ^ e)
  | Ok v ->
    check_bool "ops object present" true (Sim.Json.member v "ops" <> None);
    (match Sim.Json.member v "recorded" with
    | Some (Sim.Json.Int n) -> check_int "recorded field" 2 n
    | _ -> Alcotest.fail "recorded field missing");
    (match Sim.Json.member v "events" with
    | Some (Sim.Json.List evs) -> check_int "both events exported" 2 (List.length evs)
    | _ -> Alcotest.fail "events field missing")

let test_json_events_limit () =
  let tr, clock = mk ~capacity:8 () in
  for i = 1 to 5 do
    let start = Sim.Clock.now clock in
    Sim.Clock.charge clock 1;
    Sim.Trace.record tr ~op:"op" ~start ~arg:i ()
  done;
  match Sim.Json.member (Sim.Trace.to_json ~events_limit:2 tr) "events" with
  | Some (Sim.Json.List evs) ->
    check_int "limited to newest 2" 2 (List.length evs);
    let args =
      List.map (fun e -> match Sim.Json.member e "arg" with Some (Sim.Json.Int a) -> a | _ -> -1) evs
    in
    Alcotest.(check (list int)) "keeps the newest events" [ 4; 5 ] args
  | _ -> Alcotest.fail "events field missing"

let test_json_op_ring_occupancy () =
  let tr, clock = mk () in
  (* 6 "hot" records against capacity 4: the ring wraps, so the op summary
     must distinguish total recorded from events still in the ring. *)
  for i = 1 to 6 do
    let start = Sim.Clock.now clock in
    Sim.Clock.charge clock 1;
    Sim.Trace.record tr ~op:"hot" ~start ~arg:i ()
  done;
  let op_field name =
    match Sim.Json.member (Sim.Trace.to_json tr) "ops" with
    | Some ops -> (
      match Sim.Json.member ops "hot" with
      | Some summary -> (
        match Sim.Json.member summary name with
        | Some (Sim.Json.Int n) -> n
        | _ -> Alcotest.fail (name ^ " missing from op summary"))
      | None -> Alcotest.fail "hot op missing")
    | None -> Alcotest.fail "ops object missing"
  in
  check_int "recorded counts wrapped events" 6 (op_field "recorded");
  check_int "in_ring capped at capacity" 4 (op_field "in_ring")

(* The ring is parallel arrays rebuilt into [event] records on read:
   every field of every retained event must survive the round trip, in
   [seq] order, across wraparound. *)
let test_ring_fields_after_wrap () =
  let capacity = 5 in
  let tr, clock = mk ~capacity () in
  let total = capacity + 3 in
  let expected =
    List.init total (fun k ->
        let start = Sim.Clock.now clock in
        Sim.Clock.charge clock (k + 1);
        let op = Printf.sprintf "op%d" k and outcome = Printf.sprintf "out%d" k in
        Sim.Trace.record tr ~op ~start ~arg:(100 + k) ~outcome ~core:(10 + k) ();
        {
          Sim.Trace.seq = k;
          op;
          core = 10 + k;
          start;
          finish = Sim.Clock.now clock;
          arg = 100 + k;
          outcome;
        })
  in
  let newest = List.filteri (fun k _ -> k >= total - capacity) expected in
  check_bool "newest [capacity] events, every field intact, in seq order" true
    (Sim.Trace.events tr = newest);
  Sim.Trace.reset tr;
  check_bool "reset empties the ring" true (Sim.Trace.events tr = []);
  check_int "reset zeroes recorded" 0 (Sim.Trace.recorded tr);
  Sim.Trace.record tr ~op:"again" ~start:(Sim.Clock.now clock) ();
  check_bool "numbering restarts at 0" true
    (List.map (fun e -> (e.Sim.Trace.seq, e.Sim.Trace.op)) (Sim.Trace.events tr) = [ (0, "again") ])

let test_histogram_stddev_exact () =
  let h = Sim.Histogram.create () in
  List.iter (Sim.Histogram.observe h) [ 1; 2; 3; 4 ];
  check_bool "population stddev of 1..4" true (Sim.Histogram.stddev h = sqrt 1.25)

let suite =
  [
    Alcotest.test_case "trace: create validation" `Quick test_create_validation;
    Alcotest.test_case "trace: ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "trace: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "trace: span outcome + exception" `Quick test_span_outcome_and_exception;
    Alcotest.test_case "trace: disabled sentinel" `Quick test_disabled_sentinel;
    Alcotest.test_case "trace: JSON well-formed" `Quick test_json_well_formed;
    Alcotest.test_case "trace: JSON events_limit" `Quick test_json_events_limit;
    Alcotest.test_case "trace: JSON op recorded vs in_ring" `Quick test_json_op_ring_occupancy;
    Alcotest.test_case "trace: ring fields after wraparound" `Quick test_ring_fields_after_wrap;
    Alcotest.test_case "histogram: stddev exact" `Quick test_histogram_stddev_exact;
  ]
