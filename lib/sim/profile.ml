(* Nested-span cost-attribution profiler: one stack, one call tree, three
   metrics.

   Spans push/pop a per-simulation stack; each frame records the virtual
   clock, an injected host-ns source and the GC allocation counter on
   entry, and on exit attributes the three deltas to the current path,
   building a call tree with per-node call counts and cumulative/self
   values. The profiler itself never charges the clock, so attribution
   overhead is zero simulated cycles whether or not it is enabled.

   The host time source is injected ([now_ns]) rather than read from
   Unix: the sim library stays dependency-free, tests drive fake clocks,
   and callers pick the best monotonic source they have. Host-ns deltas
   are clamped non-negative, so a stepping wall clock can never produce
   negative attribution; allocated-words deltas are deterministic for a
   fixed binary, workload and starting heap, which is what makes them
   gateable where raw nanoseconds are not.

   Like [Trace.disabled], the [disabled] sentinel lets components keep a
   profile reachable without optional plumbing: [span] on it just runs
   its function and allocates nothing. *)

type node = {
  name : string;
  calls : int;
  cum : int;
  self : int;
  ns : int;
  self_ns : int;
  words : int;
  self_words : int;
  children : node list;
}

type metric = [ `Cycles | `Ns | `Words ]

type self_sample = {
  at_ns : int;
  heap_words : int;
  top_heap_words : int;
  minor_collections : int;
  major_collections : int;
  rss_kb : int;
}

(* Mutable call-tree node; one per distinct path, children keyed by name.
   The [child_*] fields sum the children's cumulative values. *)
type inode = {
  iname : string;
  mutable calls : int;
  mutable cum : int;
  mutable child_cum : int;
  mutable ns : int;
  mutable child_ns : int;
  mutable words : int;
  mutable child_words : int;
  children : (string, inode) Hashtbl.t;
}

(* A span in flight: its node, stack depth, and the three meters at entry. *)
type frame = { node : inode; fdepth : int; c0 : int; ns0 : int; w0 : float }

type ev = { edepth : int; ename : string; start : int; finish : int }

type t = {
  clock : Clock.t option; (* None = disabled sentinel *)
  now_ns : unit -> int;
  read_rss_kb : unit -> int;
  roots : (string, inode) Hashtbl.t;
  mutable stack : frame list; (* innermost first *)
  (* Meters at create/reset: costs before them are out of scope. *)
  mutable started : int;
  mutable started_ns : int;
  mutable started_gc : float * float * float; (* Gc.counters *)
  (* Span-event ring as parallel arrays: recording an event allocates
     nothing, and with literal span names it stores no young pointer
     into a major-heap array. A ring of records would add a
     remembered-set entry per span and force extra minor GCs inside the
     spans it measures, which perturbs their allocated-words counts. *)
  ev_depth : int array;
  ev_name : string array;
  ev_start : int array;
  ev_finish : int array;
  mutable ev_recorded : int;
  self : self_sample Queue.t;
  mutable self_recorded : int;
}

let default_events_capacity = 8192
let self_capacity = 1024

(* Allocated words as Gc.counters reports them. The counters are not
   always whole numbers, so deltas are taken in floats and truncated
   once: truncating each reading would make deltas jitter by a word. *)
let words_of (minor, promoted, major) = minor +. major -. promoted
let allocated_words () = words_of (Gc.counters ())
let words_since w0 = max 0 (int_of_float (allocated_words () -. w0))

(* [clock = None] builds the disabled sentinel. *)
let make clock ~now_ns ~rss_kb events_capacity =
  {
    clock;
    now_ns;
    read_rss_kb = rss_kb;
    roots = Hashtbl.create 16;
    stack = [];
    started = (match clock with Some c -> Clock.now c | None -> 0);
    started_ns = now_ns ();
    started_gc = Gc.counters ();
    ev_depth = Array.make events_capacity 0;
    ev_name = Array.make events_capacity "";
    ev_start = Array.make events_capacity 0;
    ev_finish = Array.make events_capacity 0;
    ev_recorded = 0;
    self = Queue.create ();
    self_recorded = 0;
  }

let create ~clock ~now_ns ?(rss_kb = fun () -> 0) ?(events_capacity = default_events_capacity) () =
  if events_capacity <= 0 then invalid_arg "Profile.create: capacity must be positive";
  make (Some clock) ~now_ns ~rss_kb events_capacity

let disabled = make None ~now_ns:(fun () -> 0) ~rss_kb:(fun () -> 0) 0

let enabled t = t.clock <> None
let depth t = match t.stack with f :: _ -> f.fdepth + 1 | [] -> 0

let reset t =
  match t.clock with
  | None -> ()
  | Some clock ->
    Hashtbl.reset t.roots;
    t.stack <- [];
    Array.fill t.ev_name 0 (Array.length t.ev_name) "";
    t.ev_recorded <- 0;
    Queue.clear t.self;
    t.self_recorded <- 0;
    t.started <- Clock.now clock;
    t.started_ns <- t.now_ns ();
    t.started_gc <- Gc.counters ()

let child_of t name =
  let tbl = match t.stack with f :: _ -> f.node.children | [] -> t.roots in
  match Hashtbl.find_opt tbl name with
  | Some n -> n
  | None ->
    let n =
      {
        iname = name;
        calls = 0;
        cum = 0;
        child_cum = 0;
        ns = 0;
        child_ns = 0;
        words = 0;
        child_words = 0;
        children = Hashtbl.create 4;
      }
    in
    Hashtbl.add tbl name n;
    n

let record_event t ~depth ~name ~start ~finish =
  let i = t.ev_recorded mod Array.length t.ev_name in
  t.ev_depth.(i) <- depth;
  t.ev_name.(i) <- name;
  t.ev_start.(i) <- start;
  t.ev_finish.(i) <- finish;
  t.ev_recorded <- t.ev_recorded + 1

let pop t clock =
  match t.stack with
  | [] -> assert false
  | f :: rest ->
    t.stack <- rest;
    let finish = Clock.now clock in
    (* Clamp: a non-monotonic host clock must never attribute negative
       time. Allocation counters only grow, but clamp them too so a
       float rounding artifact cannot go negative. *)
    let d_ns = max 0 (t.now_ns () - f.ns0) in
    let d_words = words_since f.w0 in
    let d_cycles = finish - f.c0 in
    let n = f.node in
    n.calls <- n.calls + 1;
    n.cum <- n.cum + d_cycles;
    n.ns <- n.ns + d_ns;
    n.words <- n.words + d_words;
    (match rest with
    | { node = p; _ } :: _ ->
      p.child_cum <- p.child_cum + d_cycles;
      p.child_ns <- p.child_ns + d_ns;
      p.child_words <- p.child_words + d_words
    | [] -> ());
    record_event t ~depth:f.fdepth ~name:n.iname ~start:f.c0 ~finish

let span t name f =
  match t.clock with
  | None -> f ()
  | Some clock -> (
    let node = child_of t name in
    let fdepth = depth t in
    let c0 = Clock.now clock in
    let ns0 = t.now_ns () in
    let w0 = allocated_words () in
    t.stack <- { node; fdepth; c0; ns0; w0 } :: t.stack;
    match f () with
    | v ->
      pop t clock;
      v
    | exception e ->
      (* Exception-safe: the frame is popped (and its costs up to the
         raise attributed) before the exception continues outward, so a
         partial stack never leaks. *)
      pop t clock;
      raise e)

(* ---------------------------- self-gauges ---------------------------- *)

(* Sampled simulator self-state: OCaml heap occupancy, GC activity, and
   (when a reader was injected) resident set size. Callers sample at
   workload top-of-loop; the series is bounded like every other one. *)
let sample_self t =
  if enabled t then begin
    let q = Gc.quick_stat () in
    Queue.push
      {
        at_ns = max 0 (t.now_ns () - t.started_ns);
        heap_words = q.Gc.heap_words;
        top_heap_words = q.Gc.top_heap_words;
        minor_collections = q.Gc.minor_collections;
        major_collections = q.Gc.major_collections;
        rss_kb = t.read_rss_kb ();
      }
      t.self;
    if Queue.length t.self > self_capacity then ignore (Queue.pop t.self);
    t.self_recorded <- t.self_recorded + 1
  end

let self_samples t = List.of_seq (Queue.to_seq t.self)
let self_recorded t = t.self_recorded

(* ------------------------------ snapshot ------------------------------ *)

let sorted_snapshot snapshot tbl =
  Hashtbl.fold (fun _ n acc -> snapshot n :: acc) tbl []
  |> List.sort (fun a b -> String.compare a.name b.name)

let rec snapshot (n : inode) =
  {
    name = n.iname;
    calls = n.calls;
    cum = n.cum;
    self = max 0 (n.cum - n.child_cum);
    ns = n.ns;
    self_ns = max 0 (n.ns - n.child_ns);
    words = n.words;
    self_words = max 0 (n.words - n.child_words);
    children = sorted_snapshot snapshot n.children;
  }

let tree t = sorted_snapshot snapshot t.roots

let flatten t =
  let out = ref [] in
  let rec go prefix n =
    let path = if prefix = "" then n.name else prefix ^ ";" ^ n.name in
    out := (path, n) :: !out;
    List.iter (go path) n.children
  in
  List.iter (go "") (tree t);
  List.rev !out

let self_of by (n : node) =
  match by with `Cycles -> n.self | `Ns -> n.self_ns | `Words -> n.self_words

let top_spans ?(k = 10) ?(by = `Cycles) t =
  flatten t
  |> List.sort (fun (pa, a) (pb, b) ->
         let ma = self_of by a and mb = self_of by b in
         if ma <> mb then compare mb ma else String.compare pa pb)
  |> List.filteri (fun i _ -> i < k)

let total ?(by = `Cycles) t =
  match t.clock with
  | None -> 0
  | Some clock -> (
    match by with
    | `Cycles -> Clock.now clock - t.started
    | `Ns -> max 0 (t.now_ns () - t.started_ns)
    | `Words -> words_since (words_of t.started_gc))

let attributed ?(by = `Cycles) t =
  let cum (n : inode) = match by with `Cycles -> n.cum | `Ns -> n.ns | `Words -> n.words in
  Hashtbl.fold (fun _ n acc -> acc + cum n) t.roots 0

let unattributed ?by t = max 0 (total ?by t - attributed ?by t)

let attributed_fraction ?by t =
  let total = total ?by t in
  if total = 0 then 1.0 else float_of_int (attributed ?by t) /. float_of_int total

let ns_per_vcycle (n : node) =
  if n.cum <= 0 then 0.0 else float_of_int n.ns /. float_of_int n.cum

(* ------------------------------- events ------------------------------- *)

let events_recorded t = t.ev_recorded
let events_dropped t = max 0 (t.ev_recorded - Array.length t.ev_name)

let events t =
  let cap = Array.length t.ev_name in
  let kept = min t.ev_recorded cap in
  let first = t.ev_recorded - kept in
  List.init kept (fun k ->
      let i = (first + k) mod cap in
      { edepth = t.ev_depth.(i); ename = t.ev_name.(i); start = t.ev_start.(i); finish = t.ev_finish.(i) })

(* ------------------------------ exporters ----------------------------- *)

let children_json node_to_json (n : node) =
  if n.children = [] then []
  else [ ("children", Json.Obj (List.map (fun c -> (c.name, node_to_json c)) n.children)) ]

let rec node_to_json (n : node) =
  Json.Obj
    ([ ("calls", Json.Int n.calls); ("cum", Json.Int n.cum); ("self", Json.Int n.self) ]
    @ children_json node_to_json n)

let to_json t =
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("total_cycles", Json.Int (total t));
      ("attributed_cycles", Json.Int (attributed t));
      ("unattributed_cycles", Json.Int (unattributed t));
      ("attributed_fraction", Json.Float (attributed_fraction t));
      ("events_recorded", Json.Int (events_recorded t));
      ("events_dropped", Json.Int (events_dropped t));
      ("tree", Json.Obj (List.map (fun n -> (n.name, node_to_json n)) (tree t)));
    ]

(* Chrome trace-event JSON (chrome://tracing, Perfetto, speedscope).
   Virtual cycles are exported as microseconds; viewers rebuild the stack
   from the nesting of complete ("ph":"X") events on one thread, so
   events are sorted parents-first: by start, then longest duration. *)
let to_chrome_json t =
  let evs =
    List.sort
      (fun a b ->
        if a.start <> b.start then compare a.start b.start
        else if a.finish <> b.finish then compare b.finish a.finish
        else compare a.edepth b.edepth)
      (events t)
  in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.String e.ename);
                   ("cat", Json.String "sim");
                   ("ph", Json.String "X");
                   ("ts", Json.Int e.start);
                   ("dur", Json.Int (e.finish - e.start));
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                 ])
             evs) );
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [
            ("clock", Json.String "virtual cycles exported as microseconds");
            ("dropped_events", Json.Int (events_dropped t));
            ("unattributed_cycles", Json.Int (unattributed t));
          ] );
    ]

(* Collapsed stacks for flamegraph.pl / speedscope: one "a;b;c value"
   line per path with a non-zero self value, in deterministic DFS order.
   The unattributed remainder is reported explicitly as its own root. *)
let to_collapsed ?(by = `Cycles) t =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, n) ->
      let v = self_of by n in
      if v > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" path v))
    (flatten t);
  let rest = unattributed ~by t in
  if rest > 0 then Buffer.add_string buf (Printf.sprintf "(unattributed) %d\n" rest);
  Buffer.contents buf

let pp_tree ppf t line =
  let rec go indent (n : node) =
    Format.fprintf ppf "%s%-*s " indent (max 1 (28 - String.length indent)) n.name;
    line n;
    List.iter (go (indent ^ "  ")) n.children
  in
  List.iter (go "") (tree t)

let pp ppf t =
  Format.fprintf ppf "@[<v>profile: %d total cycles, %d attributed (%.1f%%), %d unattributed@,"
    (total t) (attributed t)
    (100.0 *. attributed_fraction t)
    (unattributed t);
  pp_tree ppf t (fun n ->
      Format.fprintf ppf "calls=%-8d self=%-12d cum=%d@," n.calls n.self n.cum);
  Format.fprintf ppf "@]"

(* Word counters are deltas since create/reset (workload-scoped); heap
   occupancy and collection counts are current process state. *)
let gc_to_json t =
  let q = Gc.quick_stat () in
  let minor, promoted, major = Gc.counters () in
  let minor0, promoted0, major0 = t.started_gc in
  let d now started = max 0 (int_of_float (now -. started)) in
  Json.Obj
    [
      ("allocated_words", Json.Int (total ~by:`Words t));
      ("minor_words", Json.Int (d minor minor0));
      ("promoted_words", Json.Int (d promoted promoted0));
      ("major_words", Json.Int (d major major0));
      ("minor_collections", Json.Int q.Gc.minor_collections);
      ("major_collections", Json.Int q.Gc.major_collections);
      ("heap_words", Json.Int q.Gc.heap_words);
      ("top_heap_words", Json.Int q.Gc.top_heap_words);
      ("compactions", Json.Int q.Gc.compactions);
    ]

let self_to_json t =
  let samples = self_samples t in
  let max_of f = List.fold_left (fun acc s -> max acc (f s)) 0 samples in
  let last f = match List.rev samples with s :: _ -> f s | [] -> 0 in
  Json.Obj
    [
      ("samples", Json.Int (self_recorded t));
      ("heap_words_max", Json.Int (max_of (fun s -> s.heap_words)));
      ("top_heap_words", Json.Int (last (fun s -> s.top_heap_words)));
      ("rss_kb_max", Json.Int (max_of (fun s -> s.rss_kb)));
      ("minor_collections", Json.Int (last (fun s -> s.minor_collections)));
      ("major_collections", Json.Int (last (fun s -> s.major_collections)));
    ]

let rec host_node_to_json (n : node) =
  Json.Obj
    ([
       ("calls", Json.Int n.calls);
       ("ns", Json.Int n.ns);
       ("self_ns", Json.Int n.self_ns);
       ("words", Json.Int n.words);
       ("self_words", Json.Int n.self_words);
       ("vcycles", Json.Int n.cum);
     ]
    @ children_json host_node_to_json n)

let host_to_json t =
  Json.Obj
    [
      ("enabled", Json.Bool (enabled t));
      ("total_ns", Json.Int (total ~by:`Ns t));
      ("attributed_ns", Json.Int (attributed ~by:`Ns t));
      ("attributed_ns_fraction", Json.Float (attributed_fraction ~by:`Ns t));
      ("total_words", Json.Int (total ~by:`Words t));
      ("attributed_words", Json.Int (attributed ~by:`Words t));
      ("attributed_words_fraction", Json.Float (attributed_fraction ~by:`Words t));
      ("total_vcycles", Json.Int (total t));
      ("gc", gc_to_json t);
      ("self", self_to_json t);
      ("tree", Json.Obj (List.map (fun n -> (n.name, host_node_to_json n)) (tree t)));
    ]

let pp_host ppf t =
  Format.fprintf ppf
    "@[<v>host profile: %d ns total (%.1f%% attributed), %d words allocated (%.1f%% attributed)@,"
    (total ~by:`Ns t)
    (100.0 *. attributed_fraction ~by:`Ns t)
    (total ~by:`Words t)
    (100.0 *. attributed_fraction ~by:`Words t);
  pp_tree ppf t (fun n ->
      Format.fprintf ppf "calls=%-8d self_ns=%-12d self_words=%-10d ns/vcycle=%.1f@," n.calls
        n.self_ns n.self_words (ns_per_vcycle n));
  Format.fprintf ppf "@]"
