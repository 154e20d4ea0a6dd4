(* Background registry sampler: bounded ring of snapshots, per-interval
   rates, runtime gauges, pluggable higher-layer sources.

   Concurrency: one mutex guards the ring, the rate table and the
   source list; [armed] is the single atomic the disarmed path touches.
   The background domain is the only writer of the ring in production,
   but [tick] is also callable directly (tests, one-shot tools), so
   everything stays lock-disciplined rather than owner-disciplined. *)

type sample = {
  at_ns : int;
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * int array) list;
}

module Ring = Segdb_util.Ring

let m = Mutex.create ()
let locked f =
  Mutex.lock m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock m)

let armed = Atomic.make false
let stop_flag = Atomic.make false
let runner : unit Domain.t option ref = ref None
let interval_ms_ = ref 1000
let watched = ref [ "exec.request.ns"; "net.request.ns" ]
let ring : sample Ring.t = Ring.create 120
let rates_ : (string * float) list ref = ref []
let sources : (string * (unit -> (string * int) list)) list ref = ref []

(* callers hold [m] *)
let newest_first () = List.rev (Ring.to_list ring)

let running () = Atomic.get armed
let interval_ms () = locked (fun () -> !interval_ms_)
let samples () = locked (fun () -> Ring.to_list ring)
let rates () = locked (fun () -> !rates_)

let register_source name f =
  locked (fun () -> sources := (name, f) :: List.remove_assoc name !sources)

let unregister_source name =
  locked (fun () -> sources := List.remove_assoc name !sources)

let set_capacity n = locked (fun () -> Ring.resize ring (max 2 n))

let set_watched names = locked (fun () -> watched := names)

(* ---------------- gauge providers ---------------- *)

let g name v = Metrics.set_gauge (Metrics.gauge Metrics.default name) v

let runtime_gauges () =
  let st = Gc.quick_stat () in
  g "runtime.heap_words" st.Gc.heap_words;
  g "runtime.minor_collections" st.Gc.minor_collections;
  g "runtime.major_collections" st.Gc.major_collections;
  g "runtime.compactions" st.Gc.compactions;
  match Sys.readdir "/proc/self/fd" with
  | entries -> g "runtime.open_fds" (Array.length entries)
  | exception Sys_error _ -> ()

let refresh_gauges () =
  runtime_gauges ();
  let srcs = locked (fun () -> !sources) in
  List.iter
    (fun (_, f) ->
      match f () with
      | gauges -> List.iter (fun (n, v) -> g n v) gauges
      | exception _ -> () (* a broken source must not kill the sampler *))
    srcs

(* ---------------- windowed percentiles ---------------- *)

(* p-th percentile out of a raw bucket-count array (the diff of two
   cumulative snapshots): walk to the landing bucket, interpolate
   linearly inside it. Bucket 0's nominal lower bound is min_int;
   clamp it to 0 — samples are non-negative by construction. *)
let percentile_of_buckets b p =
  let total = Array.fold_left ( + ) 0 b in
  if total = 0 then None
  else begin
    let rank = p *. float_of_int total in
    let acc = ref 0.0 and res = ref None and i = ref 0 in
    while !res = None && !i < Array.length b do
      let c = b.(!i) in
      if c > 0 then begin
        let next = !acc +. float_of_int c in
        if next >= rank then begin
          let lo, hi = Histogram.bucket_bounds !i in
          let lo = if !i = 0 then 0 else lo in
          let frac = (rank -. !acc) /. float_of_int c in
          res := Some (float_of_int lo +. (frac *. float_of_int (hi - lo)))
        end
        else acc := next
      end;
      incr i
    done;
    !res
  end

let diff_buckets newer older =
  Array.init (Array.length newer) (fun i ->
      let o = if i < Array.length older then older.(i) else 0 in
      max 0 (newer.(i) - o))

(* window = newest ring entry minus oldest that carries the histogram *)
let window_buckets name =
  locked (fun () ->
      match newest_first () with
      | [] -> None
      | newest :: rest -> (
          match List.assoc_opt name newest.hists with
          | None -> None
          | Some nb ->
              let oldest =
                List.fold_left
                  (fun acc s ->
                    match List.assoc_opt name s.hists with Some b -> Some b | None -> acc)
                  None rest
              in
              Some (match oldest with Some ob -> diff_buckets nb ob | None -> nb)))

let window_p99 name =
  match window_buckets name with
  | None -> None
  | Some b -> percentile_of_buckets b 0.99

(* ---------------- the tick ---------------- *)

let tick ?now_ns () =
  let now = match now_ns with Some n -> n | None -> Trace.now_ns () in
  refresh_gauges ();
  let reg = Metrics.default in
  let counters = Metrics.counters reg in
  let gauges = Metrics.gauges reg in
  let watched_now = locked (fun () -> !watched) in
  let hists =
    List.filter_map
      (fun name ->
        match Metrics.histogram reg name with
        | Some h -> Some (name, Histogram.buckets h)
        | None -> None)
      watched_now
  in
  let fresh_rates =
    locked (fun () ->
        let prev = match newest_first () with s :: _ -> Some s | [] -> None in
        Ring.push ring { at_ns = now; counters; gauges; hists };
        (match prev with
        | Some p when now > p.at_ns ->
            let dt = float_of_int (now - p.at_ns) /. 1e9 in
            rates_ :=
              List.map
                (fun (name, v) ->
                  let d =
                    match List.assoc_opt name p.counters with
                    | Some pv -> v - pv
                    | None -> v
                  in
                  (* a counter that moved backwards was reset; a
                     negative rate would be a lie — clamp to zero *)
                  (name, if d < 0 then 0.0 else float_of_int d /. dt))
                counters
        | _ -> ());
        !rates_)
  in
  (* publish back into the registry so every exporter carries the rate
     and window families without knowing about the sampler *)
  List.iter
    (fun (name, r) -> g ("rate." ^ name ^ ".per_s") (int_of_float (r +. 0.5)))
    fresh_rates;
  List.iter
    (fun name ->
      match window_p99 name with
      | Some p -> g ("window." ^ name ^ ".p99") (int_of_float p)
      | None -> ())
    watched_now

(* ---------------- the background domain ---------------- *)

let loop () =
  while not (Atomic.get stop_flag) do
    tick ();
    (* sleep in short slices so stop is honoured promptly *)
    let left = ref (float_of_int !interval_ms_ /. 1e3) in
    while !left > 0.0 && not (Atomic.get stop_flag) do
      let slice = Float.min 0.05 !left in
      Unix.sleepf slice;
      left := !left -. slice
    done
  done

let start ?(interval_ms = 1000) () =
  let spawn =
    locked (fun () ->
        if !runner <> None then false
        else begin
          interval_ms_ := max 1 interval_ms;
          Atomic.set stop_flag false;
          true
        end)
  in
  if spawn then begin
    let d = Domain.spawn loop in
    locked (fun () -> runner := Some d);
    Atomic.set armed true
  end

let stop () =
  Atomic.set stop_flag true;
  let d = locked (fun () -> let d = !runner in runner := None; d) in
  (match d with Some d -> Domain.join d | None -> ());
  Atomic.set armed false

(* ---------------- /varz ---------------- *)

let varz_json () =
  let ring_now, rates_now, iv = locked (fun () -> (Ring.to_list ring, !rates_, !interval_ms_)) in
  let b = Buffer.create 4096 in
  let kvs pairs =
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" (Export.json_escape k) v))
      pairs;
    Buffer.add_char b '}'
  in
  Buffer.add_string b
    (Printf.sprintf "{\"running\":%b,\"interval_ms\":%d,\"samples\":[" (running ()) iv);
  List.iteri
    (fun i (s : sample) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "{\"at_ns\":%d,\"counters\":" s.at_ns);
      kvs (List.map (fun (k, v) -> (k, string_of_int v)) s.counters);
      Buffer.add_string b ",\"gauges\":";
      kvs (List.map (fun (k, v) -> (k, string_of_int v)) s.gauges);
      Buffer.add_char b '}')
    ring_now;
  Buffer.add_string b "],\"rates_per_s\":";
  kvs (List.map (fun (k, v) -> (k, Printf.sprintf "%.3f" v)) rates_now);
  Buffer.add_string b ",\"window_p99\":";
  kvs
    (List.filter_map
       (fun name ->
         match window_p99 name with
         | Some p -> Some (name, Printf.sprintf "%.0f" p)
         | None -> None)
       (locked (fun () -> !watched)));
  Buffer.add_string b "}\n";
  Buffer.contents b
