(* Compare two metrics JSON documents and flag regressions. Pure Json.t ->
   report; file IO and exit codes live in the CLI. *)

type status = Within | Regressed | Improved | Added | Removed | Downgraded | Upgraded

let status_name = function
  | Within -> "within"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Added -> "added"
  | Removed -> "removed"
  | Downgraded -> "DOWNGRADED"
  | Upgraded -> "upgraded"

type delta = {
  section : string;
  key : string;
  old_v : string;
  new_v : string;
  pct : float option;
  status : status;
}

type report = { threshold_pct : float; compared : int; deltas : delta list }

(* --------------------------- order stats ----------------------------- *)

(* Shared by the k-trial throughput harness (producing medians/IQRs) and
   the noise-floor gate below (consuming them): linear-interpolation
   quantiles over a small sample. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Regress.quantile: empty sample"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n = 1 then a.(0)
    else begin
      let pos = q *. float_of_int (n - 1) in
      let lo = min (int_of_float pos) (n - 2) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(lo + 1) -. a.(lo)))
    end

let median xs = quantile xs 0.5

let quartiles xs =
  let q1 = quantile xs 0.25 and q2 = quantile xs 0.5 and q3 = quantile xs 0.75 in
  (q1, q2, q3)

(* ---------------------------- JSON access ---------------------------- *)

let number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let path doc keys = List.fold_left (fun v k -> Option.bind v (fun v -> Json.member v k)) (Some doc) keys

let fields = function Some (Json.Obj f) -> f | _ -> []

let union_keys a b =
  List.sort_uniq String.compare (List.map fst a @ List.map fst b)

let show_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.4g" f

(* ------------------------------ compare ------------------------------ *)

type acc = { mutable n : int; mutable rows : delta list }

let emit acc d = acc.rows <- d :: acc.rows

(* One numeric metric present on both sides. *)
let numeric acc ~threshold ~section ~key old_ new_ =
  acc.n <- acc.n + 1;
  if old_ <> new_ then begin
    let pct = if old_ = 0.0 then Float.infinity *. Float.of_int (Stdlib.compare new_ old_) else (new_ -. old_) /. old_ *. 100.0 in
    let status =
      if Float.abs pct <= threshold then Within else if new_ > old_ then Regressed else Improved
    in
    emit acc
      { section; key; old_v = show_number old_; new_v = show_number new_; pct = Some pct; status }
  end

let one_sided acc ~section ~key ~status v =
  acc.n <- acc.n + 1;
  let s = match number v with Some f -> show_number f | None -> Json.to_string v in
  let old_v, new_v = if status = Added then ("-", s) else (s, "-") in
  emit acc { section; key; old_v; new_v; pct = None; status }

(* Walk the union of an object's keys, comparing numeric members. *)
let compare_numeric_obj acc ~threshold ~section old_fields new_fields =
  List.iter
    (fun k ->
      match (List.assoc_opt k old_fields, List.assoc_opt k new_fields) with
      | Some o, Some n -> (
        match (number o, number n) with
        | Some fo, Some fn -> numeric acc ~threshold ~section ~key:k fo fn
        | _ -> ())
      | Some o, None -> one_sided acc ~section ~key:k ~status:Removed o
      | None, Some n -> one_sided acc ~section ~key:k ~status:Added n
      | None, None -> ())
    (union_keys old_fields new_fields)

let compare_latency acc ~threshold old_doc new_doc =
  let old_ops = fields (path old_doc [ "trace"; "ops" ]) in
  let new_ops = fields (path new_doc [ "trace"; "ops" ]) in
  List.iter
    (fun op ->
      match (List.assoc_opt op old_ops, List.assoc_opt op new_ops) with
      | Some o, Some n ->
        List.iter
          (fun q ->
            match (Option.bind (Json.member o q) number, Option.bind (Json.member n q) number) with
            | Some fo, Some fn -> numeric acc ~threshold ~section:"latency" ~key:(op ^ " " ^ q) fo fn
            | _ -> ())
          [ "p50"; "p99" ]
      | Some o, None -> one_sided acc ~section:"latency" ~key:op ~status:Removed o
      | None, Some n -> one_sided acc ~section:"latency" ~key:op ~status:Added n
      | None, None -> ())
    (union_keys old_ops new_ops)

let compare_complexity acc old_doc new_doc =
  let old_ops = fields (path old_doc [ "complexity" ]) in
  let new_ops = fields (path new_doc [ "complexity" ]) in
  let str v k = match Option.bind (Json.member v k) (function Json.String s -> Some s | _ -> None) with
    | Some s -> s
    | None -> "?"
  in
  List.iter
    (fun op ->
      match (List.assoc_opt op old_ops, List.assoc_opt op new_ops) with
      | Some o, Some n ->
        let co = str o "class" and cn = str n "class" in
        acc.n <- acc.n + 1;
        if co <> cn then begin
          let status =
            match (Complexity.cls_of_name co, Complexity.cls_of_name cn) with
            | Some a, Some b ->
              if Complexity.rank b > Complexity.rank a then Downgraded else Upgraded
            | _ -> Downgraded (* unknown class names: fail safe *)
          in
          emit acc { section = "complexity"; key = op ^ " class"; old_v = co; new_v = cn; pct = None; status }
        end;
        (match (Option.bind (Json.member o "exponent") number, Option.bind (Json.member n "exponent") number) with
        | Some fo, Some fn ->
          acc.n <- acc.n + 1;
          (* Exponent drift is informational; the gate acts on class changes. *)
          if fo <> fn then
            emit acc
              {
                section = "complexity";
                key = op ^ " exponent";
                old_v = show_number fo;
                new_v = show_number fn;
                pct = None;
                status = Within;
              }
        | _ -> ())
      | Some o, None -> one_sided acc ~section:"complexity" ~key:op ~status:Removed o
      | None, Some n -> one_sided acc ~section:"complexity" ~key:op ~status:Added n
      | None, None -> ())
    (union_keys old_ops new_ops)

(* The "faults" section (R1): a recursive numeric walk over its nested
   objects. Everything in it runs on the virtual clock, so any drift is a
   code change. Two leaves gate specially: a recovery "class" string acts
   like a complexity class (Downgraded on rank increase), and a boolean
   flipping to false (e.g. "zero_cost_when_off") is a regression. *)
let rec compare_faults_obj acc ~threshold ~section old_fields new_fields =
  List.iter
    (fun k ->
      match (List.assoc_opt k old_fields, List.assoc_opt k new_fields) with
      | Some (Json.Obj o), Some (Json.Obj n) ->
        compare_faults_obj acc ~threshold ~section:(section ^ "." ^ k) o n
      | Some (Json.Bool o), Some (Json.Bool n) ->
        acc.n <- acc.n + 1;
        if o <> n then
          emit acc
            {
              section;
              key = k;
              old_v = string_of_bool o;
              new_v = string_of_bool n;
              pct = None;
              status = (if n then Improved else Regressed);
            }
      | Some (Json.String co), Some (Json.String cn) when k = "class" ->
        acc.n <- acc.n + 1;
        if co <> cn then begin
          let status =
            match (Complexity.cls_of_name co, Complexity.cls_of_name cn) with
            | Some a, Some b ->
              if Complexity.rank b > Complexity.rank a then Downgraded else Upgraded
            | _ -> Downgraded (* unknown class names: fail safe *)
          in
          emit acc { section; key = k; old_v = co; new_v = cn; pct = None; status }
        end
      | Some o, Some n -> (
        match (number o, number n) with
        | Some fo, Some fn -> numeric acc ~threshold ~section ~key:k fo fn
        | _ -> ())
      | Some o, None -> one_sided acc ~section ~key:k ~status:Removed o
      | None, Some n -> one_sided acc ~section ~key:k ~status:Added n
      | None, None -> ())
    (union_keys old_fields new_fields)

let compare_faults acc ~threshold old_doc new_doc =
  match (path old_doc [ "faults" ], path new_doc [ "faults" ]) with
  | None, None -> ()
  | o, n -> compare_faults_obj acc ~threshold ~section:"faults" (fields o) (fields n)

(* The "smp" section: machine-wide and per-core IPI/TLB/NUMA counters
   from the 4-core migration workload — the same recursive numeric walk,
   since every leaf is a virtual-clock-exact integer. *)
let compare_smp acc ~threshold old_doc new_doc =
  match (path old_doc [ "smp" ], path new_doc [ "smp" ]) with
  | None, None -> ()
  | o, n -> compare_faults_obj acc ~threshold ~section:"smp" (fields o) (fields n)

(* The "causal" section (T1): makespan decomposition, critical-path
   summary, IPI latency matrices and the hop-count sweeps. Same walk:
   the "class" strings catch a critical-path complexity downgrade, the
   "match"/"attributed" booleans catch a gate flipping false. *)
let compare_causal acc ~threshold old_doc new_doc =
  match (path old_doc [ "causal" ], path new_doc [ "causal" ]) with
  | None, None -> ()
  | o, n -> compare_faults_obj acc ~threshold ~section:"causal" (fields o) (fields n)

(* The "store" section (R2): recovery-complexity fits, the crash-explorer
   counters and the degradation-plan tallies. The walk catches both perf
   drift (recovery cycles) and robustness drift — a "violations" count
   going nonzero, a detection count going to zero, or a fit "class"
   string changing all surface as diffs. *)
let compare_store acc ~threshold old_doc new_doc =
  match (path old_doc [ "store" ], path new_doc [ "store" ]) with
  | None, None -> ()
  | o, n -> compare_faults_obj acc ~threshold ~section:"store" (fields o) (fields n)

(* Wall-clock ops/sec per scenario: direction is inverted (lower = worse)
   and the numbers are real time, hence noisy — drops only count as
   regressions when the caller opts in with [gate].

   k-trial documents carry median + IQR per scenario; the IQR is a
   measured noise floor, so the effective threshold for a scenario is
   max(threshold, 2 * worst IQR/median ratio of the two runs): a delta
   smaller than twice the observed run-to-run spread is indistinguishable
   from noise and never flagged. Legacy single-run documents (a bare
   "ops_per_sec") fall back to the flat threshold. *)
let compare_throughput acc ~threshold ~gate old_doc new_doc =
  let old_scen = fields (path old_doc [ "throughput" ]) in
  let new_scen = fields (path new_doc [ "throughput" ]) in
  let num d k = Option.bind (Json.member d k) number in
  let rate acc ~key ~eff fo fn =
    acc.n <- acc.n + 1;
    if fo <> fn then begin
      let pct =
        if fo = 0.0 then Float.infinity *. Float.of_int (Stdlib.compare fn fo)
        else (fn -. fo) /. fo *. 100.0
      in
      let status =
        if Float.abs pct <= eff then Within
        else if fn < fo then if gate then Regressed else Within
        else Improved
      in
      emit acc
        {
          section = "throughput";
          key;
          old_v = show_number fo;
          new_v = show_number fn;
          pct = Some pct;
          status;
        }
    end
  in
  List.iter
    (fun scen ->
      match (List.assoc_opt scen old_scen, List.assoc_opt scen new_scen) with
      | Some o, Some n -> (
        match (num o "median_ops_per_sec", num n "median_ops_per_sec") with
        | Some fo, Some fn ->
          let spread d m =
            match num d "iqr_ops_per_sec" with
            | Some iqr when m > 0.0 -> iqr /. m
            | _ -> 0.0
          in
          let noise_pct = 100.0 *. Float.max (spread o fo) (spread n fn) in
          let eff = Float.max threshold (2.0 *. noise_pct) in
          rate acc ~key:(scen ^ " median ops/sec") ~eff fo fn
        | _ -> (
          match (num o "ops_per_sec", num n "ops_per_sec") with
          | Some fo, Some fn -> rate acc ~key:(scen ^ " ops/sec") ~eff:threshold fo fn
          | _ -> ()))
      | Some o, None -> one_sided acc ~section:"throughput" ~key:scen ~status:Removed o
      | None, Some n -> one_sided acc ~section:"throughput" ~key:scen ~status:Added n
      | None, None -> ())
    (union_keys old_scen new_scen)

(* The "host" section (H1): host-side profile attribution per churn
   backend. Two very different metric families live here. Host
   nanoseconds are machine noise: the summary total_ns/attributed_ns are
   reported (status Within, never gated) and per-path ns keys are not
   walked at all — they differ on every run and would flood the table.
   Allocated words, call counts and virtual cycles are deterministic for
   a fixed binary, so a delta comes from a code change: reported by
   default, and the words family becomes a gate under [gate_alloc] (more
   allocation per op = the simulator got more expensive to host). On
   OCaml 5.1 the words read from Gc.counters jump across a minor
   collection, so a change can also move words between spans by moving
   where a collection falls. Heap-state gauges ("self", heap/collection
   counts) depend on GC timing relative to export, so they are
   skipped. *)
let compare_host acc ~threshold ~gate_alloc old_doc new_doc =
  let words_key k =
    match k with
    | "words" | "self_words" | "total_words" | "attributed_words" | "allocated_words"
    | "minor_words" | "promoted_words" | "major_words" ->
      true
    | _ -> false
  in
  let deterministic k =
    words_key k || k = "calls" || k = "vcycles" || k = "total_vcycles" || k = "ops"
  in
  let report_ns k = k = "total_ns" || k = "attributed_ns" in
  let emit_num ~section ~key ~gated fo fn =
    acc.n <- acc.n + 1;
    if fo <> fn then begin
      let pct =
        if fo = 0.0 then Float.infinity *. Float.of_int (Stdlib.compare fn fo)
        else (fn -. fo) /. fo *. 100.0
      in
      let status =
        if Float.abs pct <= threshold then Within
        else if fn > fo then if gated then Regressed else Within
        else Improved
      in
      emit acc
        { section; key; old_v = show_number fo; new_v = show_number fn; pct = Some pct; status }
    end
  in
  let rec walk ~section old_fields new_fields =
    List.iter
      (fun k ->
        match (List.assoc_opt k old_fields, List.assoc_opt k new_fields) with
        | Some (Json.Obj o), Some (Json.Obj n) ->
          if k <> "self" then walk ~section:(section ^ "." ^ k) o n
        | Some (Json.Bool o), Some (Json.Bool n) ->
          acc.n <- acc.n + 1;
          (* "enabled" flipping false means the plane silently detached. *)
          if o <> n then
            emit acc
              {
                section;
                key = k;
                old_v = string_of_bool o;
                new_v = string_of_bool n;
                pct = None;
                status = (if n then Improved else Regressed);
              }
        | Some o, Some n -> (
          match (number o, number n) with
          | Some fo, Some fn ->
            if deterministic k then
              emit_num ~section ~key:k ~gated:(gate_alloc && words_key k) fo fn
            else if report_ns k then emit_num ~section ~key:k ~gated:false fo fn
          | _ -> ())
        | Some o, None ->
          if deterministic k || (match o with Json.Obj _ -> true | _ -> false) then
            one_sided acc ~section ~key:k ~status:Removed o
        | None, Some n ->
          if deterministic k || (match n with Json.Obj _ -> true | _ -> false) then
            one_sided acc ~section ~key:k ~status:Added n
        | None, None -> ())
      (union_keys old_fields new_fields)
  in
  match (path old_doc [ "host" ], path new_doc [ "host" ]) with
  | None, None -> ()
  | o, n -> walk ~section:"host" (fields o) (fields n)

let compare_docs ?(threshold_pct = 10.0) ?(gate_throughput = false) ?(gate_host_alloc = false)
    ~old_doc ~new_doc () =
  let schema d = match Json.member d "schema" with Some (Json.String s) -> Some s | _ -> None in
  match (schema old_doc, schema new_doc) with
  | None, _ | _, None -> Error "missing \"schema\" field: not a metrics document"
  | Some a, Some b when a <> b ->
    Error (Printf.sprintf "schema mismatch: %S vs %S — regenerate the baseline" a b)
  | Some _, Some _ -> (
    match (Json.member old_doc "provenance", Json.member new_doc "provenance") with
    | Some p, Some q when p <> q ->
      Error "provenance mismatch (cost model or trace capacity differ): runs are not comparable"
    | Some _, None | None, Some _ ->
      Error "provenance present in only one document: runs are not comparable"
    | _ ->
      let acc = { n = 0; rows = [] } in
      (match (Option.bind (Json.member old_doc "clock_cycles") number,
              Option.bind (Json.member new_doc "clock_cycles") number) with
      | Some o, Some n -> numeric acc ~threshold:threshold_pct ~section:"clock" ~key:"clock_cycles" o n
      | _ -> ());
      compare_numeric_obj acc ~threshold:threshold_pct ~section:"counters"
        (fields (Json.member old_doc "stats"))
        (fields (Json.member new_doc "stats"));
      compare_latency acc ~threshold:threshold_pct old_doc new_doc;
      compare_complexity acc old_doc new_doc;
      compare_faults acc ~threshold:threshold_pct old_doc new_doc;
      compare_smp acc ~threshold:threshold_pct old_doc new_doc;
      compare_causal acc ~threshold:threshold_pct old_doc new_doc;
      compare_store acc ~threshold:threshold_pct old_doc new_doc;
      compare_throughput acc ~threshold:threshold_pct ~gate:gate_throughput old_doc new_doc;
      compare_host acc ~threshold:threshold_pct ~gate_alloc:gate_host_alloc old_doc new_doc;
      Ok { threshold_pct; compared = acc.n; deltas = List.rev acc.rows })

let regressions r =
  List.filter (fun d -> d.status = Regressed || d.status = Downgraded) r.deltas

let render r =
  if r.deltas = [] then
    Printf.sprintf "bench-diff: %d metrics compared, no differences (threshold %.1f%%)\n" r.compared
      r.threshold_pct
  else begin
    let t =
      Table.create ~title:"bench-diff deltas"
        ~columns:[ "section"; "metric"; "old"; "new"; "delta"; "status" ]
    in
    List.iter
      (fun d ->
        let delta =
          match d.pct with
          | Some p when Float.is_finite p -> Printf.sprintf "%+.1f%%" p
          | Some p -> if p > 0.0 then "+inf" else "-inf"
          | None -> "-"
        in
        Table.add_row t [ d.section; d.key; d.old_v; d.new_v; delta; status_name d.status ])
      r.deltas;
    let bad = List.length (regressions r) in
    let improved = List.length (List.filter (fun d -> d.status = Improved) r.deltas) in
    Table.render t
    ^ Printf.sprintf "\n%d metrics compared, %d changed: %d regression%s, %d improvement%s (threshold %.1f%%)\n"
        r.compared (List.length r.deltas) bad
        (if bad = 1 then "" else "s")
        improved
        (if improved = 1 then "" else "s")
        r.threshold_pct
  end
