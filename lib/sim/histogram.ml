(* 63 power-of-two buckets: bucket k counts samples in [2^(k-1), 2^k), with
   bucket 0 holding zero-valued samples. *)
type t = {
  buckets : int array;
  mutable count : int;
  mutable total : int;
  sq : float array; (* one cell: sum of squared samples, for stddev; unboxed *)
  mutable min_v : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make 63 0; count = 0; total = 0; sq = [| 0.0 |]; min_v = max_int; max_v = 0 }

let bucket_of v = if v <= 0 then 0 else 1 + Units.log2_floor v

let observe t v =
  if v < 0 then invalid_arg "Histogram.observe: negative sample";
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.total <- t.total + v;
  t.sq.(0) <- t.sq.(0) +. (float_of_int v *. float_of_int v);
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let total t = t.total
let mean t = if t.count = 0 then 0.0 else float_of_int t.total /. float_of_int t.count
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = t.max_v

let stddev t =
  if t.count = 0 then 0.0
  else
    let n = float_of_int t.count in
    let m = mean t in
    (* population stddev; max guards the tiny negative from float rounding *)
    sqrt (max 0.0 ((t.sq.(0) /. n) -. (m *. m)))

let percentile t p =
  assert (p >= 0.0 && p <= 100.0);
  if t.count = 0 then 0
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
    let rank = max 1 rank in
    let rec loop b seen =
      if b >= Array.length t.buckets then t.max_v
      else
        let seen = seen + t.buckets.(b) in
        if seen >= rank then if b = 0 then 0 else 1 lsl b else loop (b + 1) seen
    in
    (* The bucket upper bound is exclusive, so clamp into the range of values
       actually observed — otherwise p100 can overshoot max_v by up to 2x. *)
    min (max (loop 0 0) (min_value t)) (max_value t)

let to_json t =
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("total", Json.Int t.total);
      ("mean", Json.Float (mean t));
      ("stddev", Json.Float (stddev t));
      ("min", Json.Int (min_value t));
      ("max", Json.Int (max_value t));
      ("p50", Json.Int (percentile t 50.0));
      ("p90", Json.Int (percentile t 90.0));
      ("p99", Json.Int (percentile t 99.0));
    ]

let pp ppf t =
  Format.fprintf ppf "n=%d mean=%.1f min=%d p50=%d p99=%d max=%d" t.count (mean t) (min_value t)
    (percentile t 50.0) (percentile t 99.0) (max_value t)
