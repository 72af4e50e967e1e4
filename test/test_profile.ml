open Helpers

let mk ?step () =
  let clock = mk_clock () in
  (mk_profile ?step clock, clock)

(* ----------------------------- spans ------------------------------- *)

let test_span_nesting () =
  let p, clock = mk () in
  let v =
    Sim.Profile.span p "outer" (fun () ->
        Sim.Clock.charge clock 5;
        let inner =
          Sim.Profile.span p "inner" (fun () ->
              Sim.Clock.charge clock 7;
              1)
        in
        Sim.Clock.charge clock 2;
        inner + 1)
  in
  check_int "span returns f's value" 2 v;
  check_int "stack drained" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] ->
    check_string "root name" "outer" outer.Sim.Profile.name;
    check_int "outer cum covers everything" 14 outer.Sim.Profile.cum;
    check_int "outer self excludes inner" 7 outer.Sim.Profile.self;
    check_int "one call" 1 outer.Sim.Profile.calls;
    check_bool "outer ns positive" true (outer.Sim.Profile.ns > 0);
    check_bool "self excludes inner ns" true (outer.Sim.Profile.self_ns < outer.Sim.Profile.ns);
    (match outer.Sim.Profile.children with
    | [ inner ] ->
      check_string "child name" "inner" inner.Sim.Profile.name;
      check_int "inner cum" 7 inner.Sim.Profile.cum;
      check_int "leaf self = cum" 7 inner.Sim.Profile.self;
      check_bool "inner ns positive" true (inner.Sim.Profile.ns > 0);
      check_int "self_words excludes inner" outer.Sim.Profile.self_words
        (outer.Sim.Profile.words - inner.Sim.Profile.words);
      check_int "leaf self_words = words" inner.Sim.Profile.words inner.Sim.Profile.self_words
    | cs -> Alcotest.fail (Printf.sprintf "expected 1 child, got %d" (List.length cs)))
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_same_name_distinct_paths () =
  let p, clock = mk () in
  (* "work" as a root and "work" under "outer" are different tree nodes. *)
  Sim.Profile.span p "work" (fun () -> Sim.Clock.charge clock 3);
  Sim.Profile.span p "outer" (fun () ->
      Sim.Profile.span p "work" (fun () -> Sim.Clock.charge clock 10));
  let find path =
    match List.assoc_opt path (Sim.Profile.flatten p) with
    | Some n -> n.Sim.Profile.self
    | None -> Alcotest.fail ("missing path " ^ path)
  in
  check_int "root work" 3 (find "work");
  check_int "nested work" 10 (find "outer;work")

let test_exception_unwinding () =
  let p, clock = mk () in
  (try
     Sim.Profile.span p "outer" (fun () ->
         Sim.Profile.span p "boom" (fun () ->
             Sim.Clock.charge clock 4;
             failwith "x"))
   with Failure _ -> ());
  check_int "no leaked frames" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] ->
    check_int "cycles up to the raise attributed" 4 outer.Sim.Profile.cum;
    check_bool "ns up to the raise attributed" true (outer.Sim.Profile.ns > 0);
    check_int "outer call still counted" 1 outer.Sim.Profile.calls;
    (match outer.Sim.Profile.children with
    | [ boom ] ->
      check_int "inner counted too" 1 boom.Sim.Profile.calls;
      check_bool "inner words up to the raise reach the outer span" true
        (boom.Sim.Profile.words <= outer.Sim.Profile.words)
    | _ -> Alcotest.fail "inner span missing")
  | _ -> Alcotest.fail "outer span missing"

let test_self_vs_cum_invariant () =
  let p, clock = mk () in
  for i = 1 to 5 do
    Sim.Profile.span p "a" (fun () ->
        Sim.Clock.charge clock i;
        Sim.Profile.span p "b" (fun () ->
            Sim.Clock.charge clock (2 * i);
            ignore (Sys.opaque_identity (List.init i (fun j -> j))));
        Sim.Profile.span p "c" (fun () -> Sim.Clock.charge clock 1))
  done;
  let rec check_node (n : Sim.Profile.node) =
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 n.Sim.Profile.children in
    let at what = Printf.sprintf "%s = %s - children at %s" what what n.Sim.Profile.name in
    check_int (at "self") n.Sim.Profile.self (n.Sim.Profile.cum - sum (fun c -> c.Sim.Profile.cum));
    check_int (at "self_ns") n.Sim.Profile.self_ns
      (n.Sim.Profile.ns - sum (fun c -> c.Sim.Profile.ns));
    check_int (at "self_words") n.Sim.Profile.self_words
      (n.Sim.Profile.words - sum (fun c -> c.Sim.Profile.words));
    List.iter check_node n.Sim.Profile.children
  in
  List.iter check_node (Sim.Profile.tree p);
  check_int "all cycles attributed" (Sim.Profile.total p) (Sim.Profile.attributed p);
  check_int "nothing unattributed" 0 (Sim.Profile.unattributed p)

let test_unattributed () =
  let p, clock = mk () in
  Sim.Clock.charge clock 100 (* outside any span *);
  Sim.Profile.span p "a" (fun () -> Sim.Clock.charge clock 50);
  check_int "total sees everything" 150 (Sim.Profile.total p);
  check_int "attributed only in-span" 50 (Sim.Profile.attributed p);
  check_int "remainder explicit" 100 (Sim.Profile.unattributed p);
  let f = Sim.Profile.attributed_fraction p in
  check_bool "fraction = 1/3" true (Float.abs (f -. (1.0 /. 3.0)) < 1e-9);
  check_bool "collapsed reports the remainder" true
    (contains ~needle:"(unattributed) 100" (Sim.Profile.to_collapsed p))

let test_disabled_sentinel () =
  let p = Sim.Profile.disabled in
  check_bool "disabled" false (Sim.Profile.enabled p);
  check_int "span still runs f" 9 (Sim.Profile.span p "x" (fun () -> 9));
  check_int "no tree" 0 (List.length (Sim.Profile.tree p));
  check_int "no cycles" 0 (Sim.Profile.total p);
  check_int "no ns" 0 (Sim.Profile.total ~by:`Ns p);
  check_int "no words" 0 (Sim.Profile.total ~by:`Words p);
  Sim.Profile.sample_self p;
  check_int "sample_self is a no-op" 0 (Sim.Profile.self_recorded p)

let test_reset () =
  let p, clock = mk () in
  Sim.Profile.span p "a" (fun () -> Sim.Clock.charge clock 10);
  Sim.Profile.sample_self p;
  Sim.Profile.reset p;
  check_int "tree cleared" 0 (List.length (Sim.Profile.tree p));
  check_int "attribution restarts at reset" 0 (Sim.Profile.total p);
  check_int "events cleared" 0 (Sim.Profile.events_recorded p);
  check_int "self samples cleared" 0 (Sim.Profile.self_recorded p);
  Sim.Clock.charge clock 7;
  check_int "cycles after reset count" 7 (Sim.Profile.total p)

(* A span on a live trace with no profile attached is a direct call of
   its function: 10,000 of them allocate nothing. *)
let test_detached_span_allocates_nothing () =
  let tr = Sim.Trace.create ~clock:(mk_clock ()) () in
  let f () = () in
  let spans () =
    for _ = 1 to 10_000 do
      Sim.Trace.prof_span tr "detached" f
    done
  in
  spans ();
  let before = Gc.minor_words () in
  spans ();
  let words = int_of_float (Gc.minor_words () -. before) in
  check_bool (Printf.sprintf "%d minor words for 10,000 detached spans" words) true (words < 64)

(* ------------------------- zero overhead --------------------------- *)

(* The profiler must never charge the clock: a profiled run spends
   exactly the same simulated cycles as an unprofiled one. *)
let run_workload k =
  let p = Os.Kernel.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = Os.Kernel.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (Os.Kernel.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  Os.Kernel.munmap k p ~va ~len;
  Sim.Clock.now (Os.Kernel.clock k)

let test_zero_overhead () =
  let k_plain = mk_kernel () in
  let cycles_plain = run_workload k_plain in
  let k_prof = mk_kernel () in
  let profile = mk_profile (Os.Kernel.clock k_prof) in
  Sim.Trace.attach_profile (Os.Kernel.trace k_prof) profile;
  let cycles_prof = run_workload k_prof in
  check_int "identical total cycles with profiling on" cycles_plain cycles_prof;
  check_bool "profiler saw the work" true (Sim.Profile.attributed profile > 0)

let test_attach_disabled_rejected () =
  Alcotest.check_raises "cannot attach to the shared disabled trace"
    (Invalid_argument "Trace.attach_profile: disabled trace") (fun () ->
      Sim.Trace.attach_profile Sim.Trace.disabled Sim.Profile.disabled)

(* Two runs of one workload under host clocks with different steps: the
   virtual exports must not differ by a byte. *)
let test_virtual_exports_ignore_host_clock () =
  let exports step =
    let k = mk_kernel () in
    let p = mk_profile ~step (Os.Kernel.clock k) in
    Sim.Trace.attach_profile (Os.Kernel.trace k) p;
    ignore (run_workload k);
    ( Sim.Json.to_string (Sim.Profile.to_json p),
      Sim.Profile.to_collapsed p,
      Sim.Json.to_string (Sim.Profile.to_chrome_json p),
      Format.asprintf "%a" Sim.Profile.pp p )
  in
  let j1, c1, ch1, pp1 = exports 1 and j2, c2, ch2, pp2 = exports 997 in
  check_string "to_json" j1 j2;
  check_string "to_collapsed" c1 c2;
  check_string "to_chrome_json" ch1 ch2;
  check_string "pp" pp1 pp2

(* --------------------------- exporters ----------------------------- *)

let golden_profile () =
  let p, clock = mk () in
  Sim.Profile.span p "mmap" (fun () ->
      Sim.Clock.charge clock 100;
      Sim.Profile.span p "fault" (fun () -> Sim.Clock.charge clock 40));
  Sim.Profile.span p "access" (fun () -> Sim.Clock.charge clock 10);
  (p, clock)

let test_collapsed_golden () =
  let p, _ = golden_profile () in
  check_string "collapsed stacks, DFS order, self cycles"
    "access 10\nmmap 100\nmmap;fault 40\n" (Sim.Profile.to_collapsed p);
  (* Self-ns lines: exact values are fake-clock arithmetic, so pin the
     paths (the words remainder line is real GC state and stays out). *)
  let s = Sim.Profile.to_collapsed ~by:`Ns p in
  check_bool "mmap line present" true (contains ~needle:"mmap " s);
  check_bool "nested path present" true (contains ~needle:"mmap;fault " s);
  check_bool "access line present" true (contains ~needle:"access " s);
  check_bool "unattributed remainder explicit" true (contains ~needle:"(unattributed) " s)

let test_chrome_golden () =
  let p, _ = golden_profile () in
  let json = Sim.Profile.to_chrome_json p in
  (* Re-parse: the export must be valid JSON. *)
  (match Sim.Json.of_string (Sim.Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("chrome JSON does not parse: " ^ e));
  match Sim.Json.member json "traceEvents" with
  | Some (Sim.Json.List evs) ->
    check_int "three complete events" 3 (List.length evs);
    let field e name =
      match Sim.Json.member e name with
      | Some (Sim.Json.String s) -> s
      | Some (Sim.Json.Int i) -> string_of_int i
      | _ -> Alcotest.fail ("missing field " ^ name)
    in
    (* Sorted parents-first: mmap (starts first, longest), then fault. *)
    Alcotest.(check (list string))
      "parents before children, then by start" [ "mmap"; "fault"; "access" ]
      (List.map (fun e -> field e "name") evs);
    List.iter (fun e -> check_string "complete event" "X" (field e "ph")) evs;
    let durs = List.map (fun e -> field e "dur") evs in
    Alcotest.(check (list string)) "durations in virtual cycles" [ "140"; "40"; "10" ] durs
  | _ -> Alcotest.fail "traceEvents missing"

let test_to_json_shape () =
  let p, _ = golden_profile () in
  let parses what json =
    match Sim.Json.of_string (Sim.Json.to_string json) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (what ^ " JSON does not parse: " ^ e)
  in
  let int json key =
    match Sim.Json.member json key with
    | Some (Sim.Json.Int n) -> n
    | _ -> Alcotest.fail (key ^ " missing")
  in
  let json = Sim.Profile.to_json p in
  parses "profile" json;
  check_int "attributed" 150 (int json "attributed_cycles");
  (match Sim.Json.member json "tree" with
  | Some (Sim.Json.Obj roots) ->
    Alcotest.(check (list string)) "roots sorted by name" [ "access"; "mmap" ]
      (List.map fst roots)
  | _ -> Alcotest.fail "tree missing");
  let host = Sim.Profile.host_to_json p in
  parses "host" host;
  check_int "vcycles totalled" 150 (int host "total_vcycles");
  check_bool "ns totalled" true (int host "total_ns" > 0);
  check_bool "words totalled" true (int host "total_words" >= 0);
  (match Sim.Json.member host "gc" with
  | Some gc -> ignore (int gc "allocated_words")
  | None -> Alcotest.fail "gc block missing");
  match Sim.Json.member host "tree" with
  | Some (Sim.Json.Obj [ ("access", _); ("mmap", m) ]) ->
    check_int "per-node vcycles" 140 (int m "vcycles");
    ignore (int m "ns", int m "self_ns", int m "words", int m "self_words")
  | _ -> Alcotest.fail "host tree missing"

let test_top_spans () =
  let p, _ = golden_profile () in
  (* "big" burns many fake-ns (extra spans inside), "small" few;
     neither charges a cycle, so the cycle ranking is unchanged. *)
  Sim.Profile.span p "big" (fun () ->
      for _ = 1 to 50 do
        Sim.Profile.span p "inner" (fun () -> ())
      done);
  Sim.Profile.span p "small" (fun () -> ());
  (match Sim.Profile.top_spans ~k:2 p with
  | [ (p1, n1); (p2, n2) ] ->
    check_string "hottest self first" "mmap" p1;
    check_int "hottest self cycles" 100 n1.Sim.Profile.self;
    check_string "then fault" "mmap;fault" p2;
    check_int "second self cycles" 40 n2.Sim.Profile.self
  | l -> Alcotest.fail (Printf.sprintf "expected 2 spans, got %d" (List.length l)));
  let ranked by = Sim.Profile.top_spans ~k:max_int ~by p in
  let rec descending self = function
    | (_, a) :: ((_, b) :: _ as rest) -> self a >= self b && descending self rest
    | _ -> true
  in
  (match ranked `Ns with
  | (p1, _) :: (p2, _) :: rest ->
    check_bool "big paths outrank the rest by ns" true
      (List.mem p1 [ "big"; "big;inner" ] && List.mem p2 [ "big"; "big;inner" ]);
    check_bool "small ranks below them" true (List.mem_assoc "small" rest)
  | _ -> Alcotest.fail "ns ranking too short");
  check_bool "ranking is by descending self_ns" true
    (descending (fun n -> n.Sim.Profile.self_ns) (ranked `Ns));
  check_int "every path ranked by words" (List.length (Sim.Profile.flatten p))
    (List.length (ranked `Words));
  check_bool "ranking is by descending self_words" true
    (descending (fun n -> n.Sim.Profile.self_words) (ranked `Words))

let test_event_ring_bounded () =
  let clock = mk_clock () in
  let p = mk_profile ~events_capacity:4 clock in
  for _ = 1 to 6 do
    Sim.Profile.span p "op" (fun () -> Sim.Clock.charge clock 1)
  done;
  check_int "recorded counts everything" 6 (Sim.Profile.events_recorded p);
  check_int "dropped = recorded - capacity" 2 (Sim.Profile.events_dropped p);
  (* The call tree stays exact even when the ring wrapped. *)
  match Sim.Profile.tree p with
  | [ op ] ->
    check_int "tree keeps every call" 6 op.Sim.Profile.calls;
    check_int "tree keeps every cycle" 6 op.Sim.Profile.cum
  | _ -> Alcotest.fail "expected one root"

(* ----------------------------- gauges ------------------------------ *)

let test_gauge_hwm () =
  let stats = Sim.Stats.create () in
  Sim.Stats.set_gauge stats "depth" 5;
  Sim.Stats.add_gauge stats "depth" 3;
  Sim.Stats.add_gauge stats "depth" (-6);
  check_int "value tracks updates" 2 (Sim.Stats.gauge stats "depth");
  check_int "hwm sticks at the peak" 8 (Sim.Stats.gauge_hwm stats "depth");
  check_int "untouched gauge reads 0" 0 (Sim.Stats.gauge stats "nope");
  Sim.Stats.reset stats;
  check_int "reset clears value" 0 (Sim.Stats.gauge stats "depth");
  check_int "reset clears hwm" 0 (Sim.Stats.gauge_hwm stats "depth")

let test_gauge_sampling () =
  let stats = Sim.Stats.create () in
  Sim.Stats.set_gauge stats "g" 1;
  Sim.Stats.sample stats ~now:100;
  check_int "sampling off by default" 0 (List.length (Sim.Stats.series stats "g"));
  Sim.Stats.set_sample_interval stats ~cycles:10;
  Sim.Stats.sample stats ~now:100;
  Sim.Stats.sample stats ~now:105 (* within the interval: skipped *);
  Sim.Stats.set_gauge stats "g" 7;
  Sim.Stats.sample stats ~now:110;
  Alcotest.(check (list (pair int int)))
    "points at interval boundaries"
    [ (100, 1); (110, 7) ]
    (Sim.Stats.series stats "g");
  match Sim.Stats.gauges_to_json stats with
  | Sim.Json.Obj [ ("g", Sim.Json.Obj fields) ] ->
    check_bool "samples exported" true (List.mem_assoc "samples" fields)
  | _ -> Alcotest.fail "gauges_to_json shape"

let suite =
  [
    Alcotest.test_case "profile: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "profile: same name, distinct paths" `Quick test_same_name_distinct_paths;
    Alcotest.test_case "profile: exception unwinding" `Quick test_exception_unwinding;
    Alcotest.test_case "profile: self vs cum invariant" `Quick test_self_vs_cum_invariant;
    Alcotest.test_case "profile: unattributed remainder" `Quick test_unattributed;
    Alcotest.test_case "profile: disabled sentinel" `Quick test_disabled_sentinel;
    Alcotest.test_case "profile: reset" `Quick test_reset;
    Alcotest.test_case "profile: detached span allocates nothing" `Quick
      test_detached_span_allocates_nothing;
    Alcotest.test_case "profile: zero simulated overhead" `Quick test_zero_overhead;
    Alcotest.test_case "profile: attach to disabled trace rejected" `Quick
      test_attach_disabled_rejected;
    Alcotest.test_case "profile: virtual exports ignore the host clock" `Quick
      test_virtual_exports_ignore_host_clock;
    Alcotest.test_case "profile: collapsed golden" `Quick test_collapsed_golden;
    Alcotest.test_case "profile: chrome golden" `Quick test_chrome_golden;
    Alcotest.test_case "profile: to_json shape" `Quick test_to_json_shape;
    Alcotest.test_case "profile: top spans" `Quick test_top_spans;
    Alcotest.test_case "profile: event ring bounded" `Quick test_event_ring_bounded;
    Alcotest.test_case "stats: gauge high watermark" `Quick test_gauge_hwm;
    Alcotest.test_case "stats: gauge sampling" `Quick test_gauge_sampling;
  ]
