(* Log-bucketed histogram over non-negative integers (latencies in
   nanoseconds, blocks per operation).

   Bucket 0 holds v <= 0; bucket b >= 1 holds the dyadic range
   [2^(b-1), 2^b - 1], so bucket_of v = floor(log2 v) + 1. Sixty-four
   buckets cover the whole 63-bit int range. Percentiles interpolate
   linearly inside the landing bucket and are clamped to the exact
   [min]/[max], which makes single-distinct-value histograms exact.

   A histogram is owned by one domain at a time; cross-domain
   aggregation goes through [merge_into] (each domain records into its
   own and the owner folds them together). *)

let nbuckets = 64

type t = {
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;
  mutable max_v : int;
  buckets : int array;
}

let create () =
  { count = 0; sum = 0; min_v = max_int; max_v = min_int; buckets = Array.make nbuckets 0 }

let clear t =
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- min_int;
  Array.fill t.buckets 0 nbuckets 0

let bucket_of v =
  if v <= 0 then 0
  else begin
    let b = ref 0 and x = ref v in
    while !x > 0 do
      incr b;
      x := !x lsr 1
    done;
    !b
  end

let bucket_bounds b =
  if b <= 0 then (min_int, 0)
  else if b >= nbuckets then invalid_arg "Histogram.bucket_bounds"
  else (1 lsl (b - 1), (1 lsl b) - 1)

let record t v =
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v;
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1

let count t = t.count
let sum t = t.sum
let is_empty t = t.count = 0
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count
let buckets t = Array.copy t.buckets

let percentile t p =
  if p < 0.0 || p > 1.0 then invalid_arg "Histogram.percentile: p outside [0, 1]";
  if t.count = 0 then 0.0
  else begin
    (* rank of the sample sought, 1-based *)
    let target = max 1 (int_of_float (Float.ceil (p *. float_of_int t.count))) in
    let b = ref 0 and cum = ref 0 in
    while !cum + t.buckets.(!b) < target do
      cum := !cum + t.buckets.(!b);
      incr b
    done;
    let est =
      if !b = 0 then 0.0
      else begin
        let lo, hi = bucket_bounds !b in
        let inside = float_of_int (target - !cum - 1) /. float_of_int t.buckets.(!b) in
        float_of_int lo +. (inside *. float_of_int (hi - lo))
      end
    in
    Float.min (float_of_int t.max_v) (Float.max (float_of_int t.min_v) est)
  end

let merge_into ~into src =
  if src.count > 0 then begin
    into.count <- into.count + src.count;
    into.sum <- into.sum + src.sum;
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v;
    for b = 0 to nbuckets - 1 do
      into.buckets.(b) <- into.buckets.(b) + src.buckets.(b)
    done
  end

let copy t =
  {
    count = t.count;
    sum = t.sum;
    min_v = t.min_v;
    max_v = t.max_v;
    buckets = Array.copy t.buckets;
  }

let equal a b =
  a.count = b.count && a.sum = b.sum
  && (a.count = 0 || (a.min_v = b.min_v && a.max_v = b.max_v))
  && a.buckets = b.buckets

let pp ppf t =
  Format.fprintf ppf "count=%d p50=%.0f p90=%.0f p99=%.0f max=%d" t.count
    (percentile t 0.5) (percentile t 0.9) (percentile t 0.99) (max_value t)
