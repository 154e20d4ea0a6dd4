(* Percentiles by nearest rank. A tail percentile is refused unless at
   least [min_beyond] samples lie beyond it: with fewer, it reports an
   outlier rather than a rate. *)

let min_beyond = 10

(* 1-based rank of the p-quantile among [n] samples; the epsilon keeps
   [0.99 *. 1000.] from rounding up past 990 *)
let rank ~p n = max 1 (int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)))

let beyond ~p n = max 0 (n - rank ~p n)

let percentile ~p samples =
  let n = Array.length samples in
  if beyond ~p n < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it; at least %d are needed"
         (100. *. p) n (beyond ~p n) min_beyond)
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    Ok s.(rank ~p n - 1)
  end

let percentile_exn ~what ~p samples =
  match percentile ~p samples with Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* The median of a handful of repeated measurements (spawns, opens),
   where no tail is being estimated. *)
let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Pct.median: no samples";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
