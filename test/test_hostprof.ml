open Helpers

(* The host side of Sim.Profile: host-ns and allocated-words
   attribution, the host exporters, host-ns clamping, zero
   virtual-clock cost, allocated-words determinism and self-gauge
   sampling. *)

let mk ?step ?rss_kb () = mk_profile ?step ?rss_kb (mk_clock ())

(* ----------------------------- spans ------------------------------- *)

let test_span_nesting () =
  let clock = mk_clock () in
  let p = mk_profile clock in
  let v =
    Sim.Profile.span p "outer" (fun () ->
        Sim.Clock.charge clock 5;
        let inner = Sim.Profile.span p "inner" (fun () -> Sim.Clock.charge clock 7; 1) in
        inner + 1)
  in
  check_int "span returns f's value" 2 v;
  check_int "stack drained" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] ->
    check_string "root name" "outer" outer.Sim.Profile.name;
    check_int "one call" 1 outer.Sim.Profile.calls;
    check_int "outer vcycles cover everything" 12 outer.Sim.Profile.cum;
    check_bool "outer ns positive" true (outer.Sim.Profile.ns > 0);
    check_bool "self excludes inner ns" true (outer.Sim.Profile.self_ns < outer.Sim.Profile.ns);
    (match outer.Sim.Profile.children with
    | [ inner ] ->
      check_string "child name" "inner" inner.Sim.Profile.name;
      check_int "inner vcycles" 7 inner.Sim.Profile.cum;
      check_bool "inner ns positive" true (inner.Sim.Profile.ns > 0)
    | cs -> Alcotest.fail (Printf.sprintf "expected 1 child, got %d" (List.length cs)))
  | roots -> Alcotest.fail (Printf.sprintf "expected 1 root, got %d" (List.length roots))

let test_exception_unwinding () =
  let p = mk () in
  (try
     Sim.Profile.span p "outer" (fun () ->
         Sim.Profile.span p "boom" (fun () -> failwith "x"))
   with Failure _ -> ());
  check_int "no leaked frames" 0 (Sim.Profile.depth p);
  match Sim.Profile.tree p with
  | [ outer ] -> (
    check_int "outer call still counted" 1 outer.Sim.Profile.calls;
    check_bool "ns up to the raise attributed" true (outer.Sim.Profile.ns > 0);
    match outer.Sim.Profile.children with
    | [ boom ] -> check_int "inner counted too" 1 boom.Sim.Profile.calls
    | _ -> Alcotest.fail "inner span missing")
  | _ -> Alcotest.fail "outer span missing"

(* A host clock that goes BACKWARDS between reads: every exported delta
   must clamp to zero, never negative. *)
let test_monotonicity_clamped () =
  let t = ref 1_000_000 in
  let backwards () =
    t := !t - 50;
    !t
  in
  let p = Sim.Profile.create ~clock:(mk_clock ()) ~now_ns:backwards () in
  Sim.Profile.span p "a" (fun () -> Sim.Profile.span p "b" (fun () -> ()));
  let rec check_node (n : Sim.Profile.node) =
    check_bool (n.Sim.Profile.name ^ " ns >= 0") true (n.Sim.Profile.ns >= 0);
    check_bool (n.Sim.Profile.name ^ " self_ns >= 0") true (n.Sim.Profile.self_ns >= 0);
    List.iter check_node n.Sim.Profile.children
  in
  List.iter check_node (Sim.Profile.tree p);
  check_bool "total_ns clamped" true (Sim.Profile.total ~by:`Ns p >= 0);
  check_bool "attributed_ns clamped" true (Sim.Profile.attributed ~by:`Ns p >= 0)

let test_self_vs_cum_invariant () =
  let p = mk () in
  for i = 1 to 5 do
    Sim.Profile.span p "a" (fun () ->
        Sim.Profile.span p "b" (fun () -> ignore (Sys.opaque_identity (List.init i (fun j -> j))));
        Sim.Profile.span p "c" (fun () -> ()))
  done;
  let rec check_node (n : Sim.Profile.node) =
    let sum f = List.fold_left (fun acc c -> acc + f c) 0 n.Sim.Profile.children in
    check_int
      (Printf.sprintf "self_ns = ns - children at %s" n.Sim.Profile.name)
      n.Sim.Profile.self_ns
      (n.Sim.Profile.ns - sum (fun c -> c.Sim.Profile.ns));
    check_int
      (Printf.sprintf "self_words = words - children at %s" n.Sim.Profile.name)
      n.Sim.Profile.self_words
      (n.Sim.Profile.words - sum (fun c -> c.Sim.Profile.words));
    List.iter check_node n.Sim.Profile.children
  in
  List.iter check_node (Sim.Profile.tree p)

let test_disabled_sentinel () =
  let p = Sim.Profile.disabled in
  check_bool "disabled" false (Sim.Profile.enabled p);
  check_int "span still runs f" 9 (Sim.Profile.span p "x" (fun () -> 9));
  check_int "no tree" 0 (List.length (Sim.Profile.tree p));
  check_int "no ns" 0 (Sim.Profile.total ~by:`Ns p);
  check_int "no words" 0 (Sim.Profile.total ~by:`Words p);
  (match Sim.Json.member (Sim.Profile.host_to_json p) "enabled" with
  | Some (Sim.Json.Bool false) -> ()
  | _ -> Alcotest.fail "host JSON must report enabled=false");
  Sim.Profile.sample_self p;
  check_int "sample_self is a no-op" 0 (Sim.Profile.self_recorded p)

let test_attach_disabled_rejected () =
  Alcotest.check_raises "cannot attach to the shared disabled trace"
    (Invalid_argument "Trace.attach_profile: disabled trace") (fun () ->
      Sim.Trace.attach_profile Sim.Trace.disabled (mk ()))

(* --------------------- zero virtual-clock cost --------------------- *)

(* Host profiling must never touch the virtual clock or the stats plane:
   a profiled churn run is byte-identical to an unprofiled one in
   simulated cycles AND every counter. *)
let run_churn_workload k =
  let p = Os.Kernel.create_process k () in
  let len = Sim.Units.kib 64 in
  let va = Os.Kernel.mmap_anon k p ~len ~prot:Hw.Prot.rw ~populate:false in
  ignore (Os.Kernel.access_range k p ~va ~len ~write:true ~stride:Sim.Units.page_size);
  Os.Kernel.munmap k p ~va ~len;
  ( Sim.Clock.now (Os.Kernel.clock k),
    Sim.Json.to_string (Sim.Stats.to_json (Os.Kernel.stats k)) )

let attached k =
  let p = mk_profile (Os.Kernel.clock k) in
  Sim.Trace.attach_profile (Os.Kernel.trace k) p;
  p

let test_zero_virtual_cost () =
  let k_plain = mk_kernel () in
  let cycles_plain, stats_plain = run_churn_workload k_plain in
  let k_prof = mk_kernel () in
  let p = attached k_prof in
  let cycles_prof, stats_prof = run_churn_workload k_prof in
  check_int "identical virtual cycles with host profiling on" cycles_plain cycles_prof;
  check_string "identical counters with host profiling on" stats_plain stats_prof;
  check_bool "host profiler saw the work" true (Sim.Profile.attributed ~by:`Ns p > 0);
  check_bool "vcycles attributed too" true (Sim.Profile.total p > 0)

(* -------------------- allocation determinism ----------------------- *)

(* Allocated-words attribution depends only on the allocation sequence,
   which is fixed for a fixed binary and workload — two identical runs
   must agree word-for-word on every path. (A warm-up run first absorbs
   any one-time lazy module initialisation.) Each run starts from a
   collected heap: on OCaml 5.1 the minor field of Gc.counters jumps by
   tens of thousands of words across a minor collection, so a
   collection that some earlier test's leftovers push into a span would
   show up as a words difference that has nothing to do with the
   allocation sequence. *)
let words_profile () =
  Gc.full_major ();
  let k = mk_kernel () in
  let p = attached k in
  ignore (run_churn_workload k);
  List.map
    (fun (path, (n : Sim.Profile.node)) ->
      (path, n.Sim.Profile.calls, n.Sim.Profile.words, n.Sim.Profile.cum))
    (Sim.Profile.flatten p)

let test_words_deterministic () =
  ignore (words_profile ());
  let a = words_profile () in
  let b = words_profile () in
  check_int "same paths" (List.length a) (List.length b);
  List.iter2
    (fun (pa, ca, wa, va) (pb, cb, wb, vb) ->
      check_string "path" pa pb;
      check_int (pa ^ " calls") ca cb;
      check_int (pa ^ " words") wa wb;
      check_int (pa ^ " vcycles") va vb)
    a b

(* -------------------------- self gauges ---------------------------- *)

let test_self_samples_bounded () =
  let p = mk ~rss_kb:(fun () -> 42) () in
  for _ = 1 to 1100 do
    Sim.Profile.sample_self p
  done;
  check_int "recorded counts everything" 1100 (Sim.Profile.self_recorded p);
  let samples = Sim.Profile.self_samples p in
  check_int "retained bounded at capacity" 1024 (List.length samples);
  List.iter
    (fun s ->
      check_int "injected rss reader used" 42 s.Sim.Profile.rss_kb;
      check_bool "heap gauge populated" true (s.Sim.Profile.heap_words > 0))
    samples;
  (* at_ns is non-decreasing in sample order *)
  ignore
    (List.fold_left
       (fun prev s ->
         check_bool "at_ns non-decreasing" true (s.Sim.Profile.at_ns >= prev);
         s.Sim.Profile.at_ns)
       0 samples)

(* --------------------------- exporters ----------------------------- *)

let test_collapsed_golden () =
  (* The fake host clock advances a fixed step per read, so every span
     gets non-zero self ns; pin the self-ns collapsed lines. *)
  let p = mk ~step:10 () in
  Sim.Profile.span p "mmap" (fun () -> Sim.Profile.span p "fault" (fun () -> ()));
  Sim.Profile.span p "access" (fun () -> ());
  let s = Sim.Profile.to_collapsed ~by:`Ns p in
  check_bool "mmap line present" true (contains ~needle:"mmap " s);
  check_bool "nested path present" true (contains ~needle:"mmap;fault " s);
  check_bool "access line present" true (contains ~needle:"access " s);
  check_bool "unattributed remainder explicit" true (contains ~needle:"(unattributed) " s)

let test_to_json_shape () =
  let clock = mk_clock () in
  let p = mk_profile clock in
  Sim.Profile.span p "mmap" (fun () ->
      Sim.Clock.charge clock 100;
      Sim.Profile.span p "fault" (fun () -> Sim.Clock.charge clock 40));
  let json = Sim.Profile.host_to_json p in
  (match Sim.Json.of_string (Sim.Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("host profile JSON does not parse: " ^ e));
  (match Sim.Json.member json "total_vcycles" with
  | Some (Sim.Json.Int n) -> check_int "vcycles totalled" 140 n
  | _ -> Alcotest.fail "total_vcycles missing");
  (match Sim.Json.member json "gc" with
  | Some gc -> (
    match Sim.Json.member gc "allocated_words" with
    | Some (Sim.Json.Int _) -> ()
    | _ -> Alcotest.fail "gc.allocated_words missing")
  | None -> Alcotest.fail "gc block missing");
  match Sim.Json.member json "tree" with
  | Some (Sim.Json.Obj [ ("mmap", m) ]) -> (
    match Sim.Json.member m "vcycles" with
    | Some (Sim.Json.Int n) -> check_int "per-node vcycles" 140 n
    | _ -> Alcotest.fail "node vcycles missing")
  | _ -> Alcotest.fail "tree missing"

let test_top_paths_ranking () =
  let p = mk ~step:1 () in
  (* "big" burns many fake-ns (extra spans inside), "small" few. *)
  Sim.Profile.span p "big" (fun () ->
      for _ = 1 to 50 do
        Sim.Profile.span p "inner" (fun () -> ())
      done);
  Sim.Profile.span p "small" (fun () -> ());
  match Sim.Profile.top_spans ~k:3 ~by:`Ns p with
  | [ (p1, n1); (p2, n2); (p3, n3) ] ->
    check_bool "big paths outrank small" true (p1 <> "small" && p2 <> "small");
    check_string "coldest self-ns path last" "small" p3;
    check_bool "ranking is by descending self_ns" true
      (n1.Sim.Profile.self_ns >= n2.Sim.Profile.self_ns
      && n2.Sim.Profile.self_ns >= n3.Sim.Profile.self_ns)
  | l -> Alcotest.fail (Printf.sprintf "expected 3 ranked paths, got %d" (List.length l))

(* ------------------------- order statistics ------------------------ *)

let test_quantiles () =
  check_bool "median odd" true (Sim.Regress.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check_bool "median even interpolates" true (Sim.Regress.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check_bool "singleton" true (Sim.Regress.quantile [ 7.0 ] 0.99 = 7.0);
  let p25, med, p75 = Sim.Regress.quartiles [ 1.0; 2.0; 3.0; 4.0 ] in
  check_bool "p25" true (p25 = 1.75);
  check_bool "median" true (med = 2.5);
  check_bool "p75" true (p75 = 3.25);
  Alcotest.check_raises "empty sample rejected"
    (Invalid_argument "Regress.quantile: empty sample") (fun () ->
      ignore (Sim.Regress.quantile [] 0.5))

(* ------------------------ regress gating --------------------------- *)

(* Minimal comparable documents (same schema + provenance). *)
let doc sections =
  Sim.Json.Obj
    ([ ("schema", Sim.Json.String "test/1"); ("provenance", Sim.Json.Obj [] ) ] @ sections)

let throughput_doc ~median ~iqr =
  doc
    [
      ( "throughput",
        Sim.Json.Obj
          [
            ( "churn",
              Sim.Json.Obj
                [
                  ("median_ops_per_sec", Sim.Json.Float median);
                  ("iqr_ops_per_sec", Sim.Json.Float iqr);
                ] );
          ] );
    ]

let diff ?gate_throughput ?gate_host_alloc old_doc new_doc =
  match Sim.Regress.compare_docs ?gate_throughput ?gate_host_alloc ~old_doc ~new_doc () with
  | Ok r -> r
  | Error e -> Alcotest.fail ("compare_docs: " ^ e)

let test_throughput_noise_floor () =
  (* A 15% drop with a 10% default threshold would gate — but the old
     run's IQR is 10% of its median, so the noise floor is 20% and the
     drop must NOT flag even with the gate on. *)
  let old_doc = throughput_doc ~median:1000.0 ~iqr:100.0 in
  let new_doc = throughput_doc ~median:850.0 ~iqr:10.0 in
  let r = diff ~gate_throughput:true old_doc new_doc in
  check_int "inside noise floor: no regressions" 0 (List.length (Sim.Regress.regressions r));
  (* A 50% drop is far outside the floor: gates when asked... *)
  let new_bad = throughput_doc ~median:500.0 ~iqr:10.0 in
  let r = diff ~gate_throughput:true old_doc new_bad in
  check_int "outside noise floor: gated" 1 (List.length (Sim.Regress.regressions r));
  (* ...and is report-only without the gate. *)
  let r = diff old_doc new_bad in
  check_int "report-only by default" 0 (List.length (Sim.Regress.regressions r))

let host_doc ~words =
  doc
    [
      ( "host",
        Sim.Json.Obj
          [
            ( "churn_malloc",
              Sim.Json.Obj
                [
                  ("enabled", Sim.Json.Bool true);
                  ("total_ns", Sim.Json.Int 12345);
                  ("attributed_words", Sim.Json.Int words);
                  ( "tree",
                    Sim.Json.Obj
                      [
                        ( "malloc",
                          Sim.Json.Obj
                            [
                              ("calls", Sim.Json.Int 100);
                              ("ns", Sim.Json.Int 999);
                              ("self_ns", Sim.Json.Int 999);
                              ("words", Sim.Json.Int words);
                              ("self_words", Sim.Json.Int words);
                              ("vcycles", Sim.Json.Int 5000);
                            ] );
                      ] );
                ] );
          ] );
    ]

let test_host_alloc_gate () =
  let old_doc = host_doc ~words:1000 in
  let new_doc = host_doc ~words:1500 (* +50% allocation *) in
  let r = diff old_doc new_doc in
  check_int "host words report-only by default" 0 (List.length (Sim.Regress.regressions r));
  check_bool "but the delta is reported" true
    (List.exists (fun d -> d.Sim.Regress.key = "attributed_words") r.Sim.Regress.deltas);
  let r = diff ~gate_host_alloc:true old_doc new_doc in
  let regs = Sim.Regress.regressions r in
  check_bool "gated under --gate-host-alloc" true (List.length regs >= 1);
  check_bool "per-path words gated too" true
    (List.exists
       (fun d -> d.Sim.Regress.section = "host.churn_malloc.tree.malloc" && d.Sim.Regress.key = "words")
       regs);
  (* ns keys never gate, even under the alloc gate *)
  check_bool "ns never gates" true
    (List.for_all
       (fun d -> not (contains ~needle:"ns" d.Sim.Regress.key))
       regs);
  (* an improvement (fewer words) never gates *)
  let r = diff ~gate_host_alloc:true new_doc old_doc in
  check_int "shrinking allocation passes" 0 (List.length (Sim.Regress.regressions r))

let test_host_enabled_flip_gates () =
  let flip enabled =
    doc
      [
        ( "host",
          Sim.Json.Obj
            [ ("churn_malloc", Sim.Json.Obj [ ("enabled", Sim.Json.Bool enabled) ]) ] );
      ]
  in
  let r = diff (flip true) (flip false) in
  check_int "plane silently detaching is a regression" 1
    (List.length (Sim.Regress.regressions r))

let suite =
  [
    Alcotest.test_case "hostprof: span nesting" `Quick test_span_nesting;
    Alcotest.test_case "hostprof: exception unwinding" `Quick test_exception_unwinding;
    Alcotest.test_case "hostprof: non-monotonic clock clamped" `Quick test_monotonicity_clamped;
    Alcotest.test_case "hostprof: self vs cum invariant" `Quick test_self_vs_cum_invariant;
    Alcotest.test_case "hostprof: disabled sentinel" `Quick test_disabled_sentinel;
    Alcotest.test_case "hostprof: attach to disabled trace rejected" `Quick
      test_attach_disabled_rejected;
    Alcotest.test_case "hostprof: zero virtual-clock cost" `Quick test_zero_virtual_cost;
    Alcotest.test_case "hostprof: allocated words deterministic" `Quick test_words_deterministic;
    Alcotest.test_case "hostprof: self samples bounded" `Quick test_self_samples_bounded;
    Alcotest.test_case "hostprof: collapsed export" `Quick test_collapsed_golden;
    Alcotest.test_case "hostprof: to_json shape" `Quick test_to_json_shape;
    Alcotest.test_case "hostprof: top paths ranking" `Quick test_top_paths_ranking;
    Alcotest.test_case "regress: quantile helpers" `Quick test_quantiles;
    Alcotest.test_case "regress: throughput IQR noise floor" `Quick test_throughput_noise_floor;
    Alcotest.test_case "regress: host alloc gate" `Quick test_host_alloc_gate;
    Alcotest.test_case "regress: host enabled flip gates" `Quick test_host_enabled_flip_gates;
  ]
