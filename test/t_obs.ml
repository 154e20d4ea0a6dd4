(* Observability layer: histogram math, registry merging, the trace
   ring, the exporters, and the contract that matters most — turning
   tracing on never changes any query answer. *)

open Segdb_obs
module Io_stats = Segdb_io.Io_stats
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng
module Vs = Segdb_core.Vs_index
module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec

let qtest = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A tiny JSON well-formedness check: every brace/bracket balances and
   strings close. Not a full parser, but catches the classic exporter
   bugs (trailing commas are caught by CI's python -m json.tool; here
   we guard structure). *)
let json_balanced s =
  let depth = ref 0 and ok = ref true and in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

(* ---------------- histograms ---------------- *)

let test_bucket_boundaries () =
  (* bucket 0 holds v <= 0; bucket b >= 1 holds [2^(b-1), 2^b - 1] *)
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket of %d" v) b (Histogram.bucket_of v))
    [
      (min_int, 0);
      (-1, 0);
      (0, 0);
      (1, 1);
      (2, 2);
      (3, 2);
      (4, 3);
      (7, 3);
      (8, 4);
      (1023, 10);
      (1024, 11);
    ];
  for b = 1 to 20 do
    let lo, hi = Histogram.bucket_bounds b in
    Alcotest.(check int) "lo lands in b" b (Histogram.bucket_of lo);
    Alcotest.(check int) "hi lands in b" b (Histogram.bucket_of hi);
    Alcotest.(check bool) "hi+1 leaves b" true (Histogram.bucket_of (hi + 1) = b + 1)
  done

let test_percentiles_exact () =
  let h = Histogram.create () in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Histogram.percentile h 0.5);
  Histogram.record h 7;
  (* a single sample is every percentile *)
  Alcotest.(check (float 0.0)) "single p1" 7.0 (Histogram.percentile h 0.01);
  Alcotest.(check (float 0.0)) "single p99" 7.0 (Histogram.percentile h 0.99);
  let h = Histogram.create () in
  for v = 1 to 100 do
    Histogram.record h v
  done;
  (* percentiles are interpolated inside dyadic buckets, so allow the
     bucket's resolution, but the clamp to observed min/max is exact *)
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 in [32,64]" true (p50 >= 32.0 && p50 <= 64.0);
  let p99 = Histogram.percentile h 0.99 in
  Alcotest.(check bool) "p99 in [64,100]" true (p99 >= 64.0 && p99 <= 100.0);
  Alcotest.(check (float 0.0)) "p100 = max" 100.0 (Histogram.percentile h 1.0);
  Alcotest.(check int) "count" 100 (Histogram.count h);
  Alcotest.(check int) "sum" 5050 (Histogram.sum h);
  Alcotest.(check int) "min" 1 (Histogram.min_value h);
  Alcotest.(check int) "max" 100 (Histogram.max_value h)

let prop_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative and commutative" ~count:200
    QCheck.(triple (small_list small_signed_int) (small_list small_signed_int) (small_list small_signed_int))
    (fun (xs, ys, zs) ->
      let of_list l =
        let h = Histogram.create () in
        List.iter (Histogram.record h) l;
        h
      in
      let merged lists =
        let acc = Histogram.create () in
        List.iter (fun l -> Histogram.merge_into ~into:acc (of_list l)) lists;
        acc
      in
      (* (x + y) + z = x + (y + z) = z + y + x = one histogram of all *)
      let a =
        let xy = merged [ xs; ys ] in
        Histogram.merge_into ~into:xy (of_list zs);
        xy
      in
      let b =
        let yz = merged [ ys; zs ] in
        let acc = of_list xs in
        Histogram.merge_into ~into:acc yz;
        acc
      in
      let c = merged [ zs; ys; xs ] in
      let d = of_list (xs @ ys @ zs) in
      Histogram.equal a b && Histogram.equal b c && Histogram.equal c d)

let test_merge_across_domains () =
  (* each domain records into a private histogram; the merged view
     equals one histogram fed everything *)
  let parts =
    Array.init 4 (fun k ->
        Domain.spawn (fun () ->
            let h = Histogram.create () in
            for v = 1 to 1000 do
              Histogram.record h ((v * (k + 1)) land 4095)
            done;
            h))
    |> Array.map Domain.join
  in
  let merged = Histogram.create () in
  Array.iter (fun h -> Histogram.merge_into ~into:merged h) parts;
  let expect = Histogram.create () in
  for k = 0 to 3 do
    for v = 1 to 1000 do
      Histogram.record expect ((v * (k + 1)) land 4095)
    done
  done;
  Alcotest.(check bool) "merged = serial" true (Histogram.equal merged expect)

let test_percentile_edges () =
  (* empty: every percentile is 0, and p outside [0,1] is rejected *)
  let h = Histogram.create () in
  List.iter
    (fun p -> Alcotest.(check (float 0.0)) "empty" 0.0 (Histogram.percentile h p))
    [ 0.0; 0.5; 1.0 ];
  List.iter
    (fun p ->
      match Histogram.percentile h p with
      | _ -> Alcotest.failf "p=%f accepted" p
      | exception Invalid_argument _ -> ())
    [ -0.1; 1.5 ];
  (* a single observation answers every percentile exactly, including
     one sitting precisely on a bucket's lower bound *)
  Histogram.record h 1024;
  List.iter
    (fun p -> Alcotest.(check (float 0.0)) "single" 1024.0 (Histogram.percentile h p))
    [ 0.0; 0.25; 0.99; 1.0 ];
  (* p0 clamps to the observed min even though the estimate
     interpolates inside dyadic buckets *)
  let h = Histogram.create () in
  List.iter (Histogram.record h) [ 3; 50; 700; 9001 ];
  Alcotest.(check (float 0.0)) "p0 = min" 3.0 (Histogram.percentile h 0.0);
  Alcotest.(check bool) "p100 <= max" true (Histogram.percentile h 1.0 <= 9001.0);
  (* values pinned to a bucket bound: when every sample is the same
     bound, the min/max clamp makes every percentile exact *)
  List.iter
    (fun b ->
      let lo, hi = Histogram.bucket_bounds b in
      List.iter
        (fun v ->
          let h = Histogram.create () in
          for _ = 1 to 5 do
            Histogram.record h v
          done;
          List.iter
            (fun p ->
              Alcotest.(check (float 0.0))
                (Printf.sprintf "pinned %d p%g" v p)
                (float_of_int v) (Histogram.percentile h p))
            [ 0.0; 0.5; 1.0 ])
        [ lo; hi ])
    [ 1; 4; 11 ];
  (* a mixed bucket stays inside its bounds *)
  let h = Histogram.create () in
  let lo, hi = Histogram.bucket_bounds 4 in
  List.iter (Histogram.record h) [ lo; lo; lo; hi ];
  let p50 = Histogram.percentile h 0.5 in
  Alcotest.(check bool) "p50 within bucket" true
    (p50 >= float_of_int lo && p50 <= float_of_int hi);
  Alcotest.(check (float 0.0)) "p0 pinned lo" (float_of_int lo) (Histogram.percentile h 0.0);
  let p100 = Histogram.percentile h 1.0 in
  Alcotest.(check bool) "p100 within bucket, above p50" true
    (p100 >= p50 && p100 <= float_of_int hi)

(* ---------------- metrics registry ---------------- *)

let test_registry_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter r "a.count" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check bool) "same handle" true (Metrics.counter r "a.count" == c);
  Metrics.set_gauge (Metrics.gauge r "depth") 3;
  Metrics.observe r "lat" 10;
  Metrics.observe r "lat" 20;
  let other = Metrics.create () in
  Metrics.add (Metrics.counter other "a.count") 2;
  Metrics.observe other "lat" 30;
  Metrics.merge_into ~into:r other;
  Alcotest.(check int) "merged counter" 7 (Metrics.value c);
  (match Metrics.histogram r "lat" with
  | Some h -> Alcotest.(check int) "merged histogram" 3 (Histogram.count h)
  | None -> Alcotest.fail "lat histogram missing");
  Alcotest.(check (list (pair string int))) "sorted counters" [ ("a.count", 7) ] (Metrics.counters r);
  Metrics.reset r;
  Alcotest.(check int) "reset zeroes via old handle" 0 (Metrics.value c)

let test_atomic_io_stats () =
  (* satellite 1: concurrent recorders lose no increments *)
  let s = Io_stats.create () in
  let per = 25_000 in
  Array.init 4 (fun _ ->
      Domain.spawn (fun () ->
          for _ = 1 to per do
            Io_stats.record_read s;
            Io_stats.record_write s;
            Io_stats.record_alloc s
          done))
  |> Array.iter Domain.join;
  Alcotest.(check int) "reads" (4 * per) (Io_stats.reads s);
  Alcotest.(check int) "writes" (4 * per) (Io_stats.writes s);
  Alcotest.(check int) "allocs" (4 * per) (Io_stats.allocs s);
  let snap = Io_stats.snapshot s in
  Alcotest.(check int) "snapshot total" (8 * per) (Io_stats.snapshot_total snap)

(* ---------------- trace ring ---------------- *)

let with_tracing f =
  Trace.clear ();
  Metrics.reset Metrics.default;
  Fun.protect ~finally:(fun () -> Control.disable ()) (fun () ->
      Control.enable ();
      f ())

let test_ring_wraparound () =
  with_tracing @@ fun () ->
  Trace.set_capacity 8;
  Fun.protect ~finally:(fun () -> Trace.set_capacity 4096) @@ fun () ->
  for i = 0 to 19 do
    Trace.with_span (Printf.sprintf "p%d" i) (fun () -> ())
  done;
  let evs = Trace.events () in
  Alcotest.(check int) "capacity survivors" 8 (List.length evs);
  (* the survivors are the 8 newest, oldest first, seq monotone *)
  List.iteri
    (fun i (ev : Trace.event) ->
      Alcotest.(check int) "seq" (12 + i) ev.seq;
      Alcotest.(check string) "phase" (Printf.sprintf "p%d" (12 + i)) ev.phase)
    evs

let test_span_nesting_and_histograms () =
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span "inner" (fun () -> ());
      Trace.with_span "inner" (fun () -> ()));
  let evs = Trace.events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let depth_of phase =
    (List.find (fun (e : Trace.event) -> e.phase = phase) evs).depth
  in
  Alcotest.(check int) "outer depth" 0 (depth_of "outer");
  Alcotest.(check int) "inner depth" 1 (depth_of "inner");
  (match Metrics.histogram Metrics.default (Trace.span_histogram "inner") with
  | Some h -> Alcotest.(check int) "inner samples" 2 (Histogram.count h)
  | None -> Alcotest.fail "span histogram missing");
  (* disabled means inert: no new events *)
  Control.disable ();
  Trace.with_span "ghost" (fun () -> ());
  Alcotest.(check int) "still three" 3 (List.length (Trace.events ()))

(* Spans read a nanosecond clock: an empty span still measures time.
   A microsecond wall clock rounds most of these to 0. *)
let test_empty_span_resolution () =
  with_tracing @@ fun () ->
  for _ = 1 to 200 do
    Trace.with_span "empty" (fun () -> ())
  done;
  let durs =
    List.filter_map
      (fun (e : Trace.event) -> if e.phase = "empty" then Some e.dur_ns else None)
      (Trace.events ())
    |> List.sort compare
  in
  Alcotest.(check int) "200 spans" 200 (List.length durs);
  let median = List.nth durs 100 in
  Alcotest.(check bool) (Printf.sprintf "median %d ns > 0" median) true (median > 0)

let test_per_domain_rings () =
  with_tracing @@ fun () ->
  (* writers on distinct domains record concurrently into private
     rings; the merged view loses nothing and keeps global seq order *)
  Array.init 3 (fun k ->
      Domain.spawn (fun () ->
          for i = 0 to 49 do
            Trace.with_span (Printf.sprintf "d%d.%d" k i) (fun () -> ())
          done))
  |> Array.iter Domain.join;
  Trace.with_span "local" (fun () -> ());
  let evs = Trace.events () in
  Alcotest.(check int) "all events retained" 151 (List.length evs);
  let seqs = List.map (fun (e : Trace.event) -> e.seq) evs in
  Alcotest.(check int) "seqs globally unique" 151
    (List.length (List.sort_uniq compare seqs));
  Alcotest.(check bool) "merged view sorted by seq" true
    (seqs = List.sort compare seqs);
  let doms = List.sort_uniq compare (List.map (fun (e : Trace.event) -> e.dom) evs) in
  Alcotest.(check bool) "events tagged with >= 2 domains" true (List.length doms >= 2)

(* A reader racing an owner that keeps wrapping its ring gets only
   whole events: every field of an event carries the same counter. *)
let test_ring_whole_events () =
  with_tracing @@ fun () ->
  Trace.set_capacity 64;
  Fun.protect ~finally:(fun () -> Trace.set_capacity 4096) @@ fun () ->
  let phases = Array.init 7 (Printf.sprintf "phase%d") in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let c = ref 1 in
        while not (Atomic.get stop) do
          Trace.record ~request_id:!c ~blocks:!c ~t0_ns:!c ~dur_ns:!c phases.(!c mod 7);
          incr c
        done;
        !c)
  in
  let reads = ref 0 and seen = ref 0 and torn = ref 0 in
  while !reads < 2_000 || !seen < 10_000 do
    incr reads;
    List.iter
      (fun (e : Trace.event) ->
        incr seen;
        let c = e.request_id in
        if not (e.t0_ns = c && e.dur_ns = c && e.blocks = c && e.phase = phases.(c mod 7))
        then incr torn)
      (Trace.events ())
  done;
  Atomic.set stop true;
  let pushed = Domain.join writer in
  Alcotest.(check bool) (Printf.sprintf "%d events pushed" pushed) true (pushed > 64);
  Alcotest.(check int) (Printf.sprintf "torn events among %d read" !seen) 0 !torn

(* An event is ints stored into preallocated columns: recording puts
   nothing in the major heap (a boxed event in a long-lived ring slot
   was promoted on every push). *)
let test_record_no_major_words () =
  with_tracing @@ fun () ->
  let phase = "pinned" in
  Trace.record ~t0_ns:0 ~dur_ns:0 phase;
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for i = 1 to 100_000 do
    Trace.record ~request_id:i ~blocks:i ~t0_ns:i ~dur_ns:i phase
  done;
  Gc.minor ();
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  Alcotest.(check bool) (Printf.sprintf "%.0f major words for 100,000 events" words) true
    (words < 64.)

let test_request_ids () =
  let a = Trace.fresh_request_id () and b = Trace.fresh_request_id () in
  Alcotest.(check bool) "fresh ids nonzero" true (a <> 0 && b <> 0);
  Alcotest.(check bool) "fresh ids distinct" true (a <> b);
  with_tracing @@ fun () ->
  Alcotest.(check int) "no ambient id" 0 (Trace.current_request_id ());
  Trace.with_request_id a (fun () ->
      Alcotest.(check int) "ambient id set" a (Trace.current_request_id ());
      Trace.with_span "tagged" (fun () -> ());
      Trace.with_request_id b (fun () -> Trace.with_span "nested" (fun () -> ()));
      Alcotest.(check int) "inner scope restored" a (Trace.current_request_id ()));
  Alcotest.(check int) "outer scope restored" 0 (Trace.current_request_id ());
  Trace.with_span "untagged" (fun () -> ());
  Trace.record ~request_id:b ~blocks:3 ~t0_ns:1 ~dur_ns:2 "injected";
  let find p = List.find (fun (e : Trace.event) -> e.phase = p) (Trace.events ()) in
  Alcotest.(check int) "span carries ambient id" a (find "tagged").request_id;
  Alcotest.(check int) "nested override wins" b (find "nested").request_id;
  Alcotest.(check int) "outside scope is 0" 0 (find "untagged").request_id;
  let inj = find "injected" in
  Alcotest.(check int) "record carries explicit id" b inj.request_id;
  Alcotest.(check int) "record keeps interval" 2 inj.dur_ns;
  Alcotest.(check int) "record keeps blocks" 3 inj.blocks

(* ---------------- trace-event JSON export ---------------- *)

let count_occurrences needle s =
  let nn = String.length needle in
  let rec go i acc =
    if i + nn > String.length s then acc
    else if String.sub s i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  if nn = 0 then 0 else go 0 0

let test_trace_json_wellformed () =
  with_tracing @@ fun () ->
  let rid = Trace.fresh_request_id () in
  Trace.with_request_id rid (fun () ->
      Trace.with_span "outer" (fun () ->
          Trace.with_span "in\"ner" (fun () -> ())));
  Trace.record ~request_id:rid ~blocks:2 ~t0_ns:0 ~dur_ns:5000 "pinned";
  let evs = Trace.events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let js = Export.trace_json evs in
  Alcotest.(check bool) "balanced json" true (json_balanced js);
  Alcotest.(check bool) "phase names escaped" true (contains js "in\\\"ner");
  (* every event is a complete X event: all mandatory keys, once each *)
  Alcotest.(check int) "one X per event" 3 (count_occurrences "\"ph\": \"X\"" js);
  List.iter
    (fun key -> Alcotest.(check int) key 3 (count_occurrences key js))
    [ "\"name\": "; "\"ts\": "; "\"dur\": "; "\"pid\": "; "\"tid\": "; "\"args\": " ];
  Alcotest.(check int) "all events under one request id" 3
    (count_occurrences (Printf.sprintf "\"pid\": %d" rid) js);
  (* timestamps come out sorted ascending (one pass for viewers) *)
  let find_from needle from =
    let nn = String.length needle in
    let rec go i =
      if i + nn > String.length js then None
      else if String.sub js i nn = needle then Some i
      else go (i + 1)
    in
    go from
  in
  let ts_values =
    let marker = "\"ts\": " in
    let rec collect i acc =
      match find_from marker i with
      | None -> List.rev acc
      | Some j ->
          let start = j + String.length marker in
          let stop = String.index_from js start ',' in
          collect stop (float_of_string (String.sub js start (stop - start)) :: acc)
    in
    collect 0 []
  in
  Alcotest.(check int) "ts per event" 3 (List.length ts_values);
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "ts monotone" true (monotone ts_values);
  (* the injected t0=0 event sorts first *)
  Alcotest.(check (float 0.0)) "pinned event first" 0.0 (List.hd ts_values)

(* ---------------- structured log ---------------- *)

let test_log_levels_and_ring () =
  Log.set_stderr false;
  Fun.protect
    ~finally:(fun () ->
      Log.set_stderr true;
      Log.set_level None;
      Log.set_ring 0)
  @@ fun () ->
  Log.set_level None;
  Log.set_ring 4;
  Alcotest.(check bool) "off: nothing would log" false (Log.would_log Log.Error);
  let forced = ref false in
  Log.error ~comp:"t" "dropped" (fun () ->
      forced := true;
      []);
  Alcotest.(check bool) "off: fields never forced" false !forced;
  Alcotest.(check int) "off: ring untouched" 0 (List.length (Log.ring_events ()));
  Log.set_level (Some Log.Warn);
  Alcotest.(check bool) "warn clears threshold" true (Log.would_log Log.Warn);
  Alcotest.(check bool) "info below threshold" false (Log.would_log Log.Info);
  Log.info ~comp:"t" "below" (fun () -> [ Log.s "k" "v" ]);
  Log.warn ~comp:"t" "kept" (fun () -> [ Log.s "peer" "unix:/x y"; Log.i "n" 3 ]);
  Log.error ~comp:"t" "also kept" (fun () -> [ Log.b "flag" true; Log.f "ms" 1.5 ]);
  (match Log.ring_events () with
  | [ w; e ] ->
      Alcotest.(check string) "ring keeps msg" "kept" w.Log.msg;
      Alcotest.(check string) "ring keeps comp" "t" w.Log.comp;
      Alcotest.(check bool) "ring keeps ts" true (w.Log.ts_ns > 0);
      let wl = Log.render w in
      Alcotest.(check bool) "renders level" true (contains wl "level=warn");
      Alcotest.(check bool) "quotes values with spaces" true
        (contains wl "peer=\"unix:/x y\"");
      Alcotest.(check bool) "renders ints bare" true (contains wl "n=3");
      Alcotest.(check bool) "quotes the message" true (contains wl "msg=\"kept\"");
      let el = Log.render e in
      Alcotest.(check bool) "renders bools" true (contains el "flag=true");
      Alcotest.(check bool) "renders floats" true (contains el "ms=1.5")
  | l -> Alcotest.failf "expected 2 ring events, got %d" (List.length l));
  (* the ring keeps only the newest n, oldest first *)
  Log.set_level (Some Log.Debug);
  for k = 1 to 10 do
    Log.debug ~comp:"t" (string_of_int k) (fun () -> [])
  done;
  let evs = Log.ring_events () in
  Alcotest.(check int) "ring bounded" 4 (List.length evs);
  Alcotest.(check (list string)) "newest four, oldest first"
    [ "7"; "8"; "9"; "10" ]
    (List.map (fun (e : Log.event) -> e.msg) evs)

let test_log_render_escaping () =
  let ev =
    {
      Log.ts_ns = 42;
      lvl = Log.Error;
      dom = 1;
      comp = "wal";
      msg = "torn \"tail\"\ntruncated";
      fields = [ Log.s "path" "/tmp/a=b"; Log.s "plain" "ok" ];
    }
  in
  let line = Log.render ev in
  Alcotest.(check bool) "escapes quotes in msg" true (contains line "\\\"tail\\\"");
  Alcotest.(check bool) "escapes newline in msg" true (contains line "\\n");
  Alcotest.(check bool) "no raw newline in output" false (String.contains line '\n');
  Alcotest.(check bool) "quotes values with =" true (contains line "path=\"/tmp/a=b\"");
  Alcotest.(check bool) "bare values stay bare" true (contains line "plain=ok")

(* ---------------- slow-query log ---------------- *)

let mk_entry ?(request_id = 0xbeef) ?(wall_ns = 7_000_000) query =
  {
    Slowlog.request_id;
    query;
    queries = 1;
    outcome = "ok";
    wall_ns;
    queue_wait_ns = 1_000_000;
    blocks = 4;
    cache_hits = 2;
    cache_misses = 1;
    at_ns = 99;
  }

let test_slowlog_threshold_and_ring () =
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_threshold_ms (-1);
      Slowlog.set_capacity 128)
  @@ fun () ->
  Slowlog.set_threshold_ms (-1);
  Slowlog.clear ();
  Alcotest.(check bool) "disabled by default" false (Slowlog.enabled ());
  Alcotest.(check int) "threshold readback disabled" (-1) (Slowlog.threshold_ms ());
  let forced = ref false in
  Slowlog.note ~wall_ns:max_int (fun () ->
      forced := true;
      mk_entry "never");
  Alcotest.(check bool) "disabled: entry never built" false !forced;
  Slowlog.set_threshold_ms 5;
  Alcotest.(check bool) "armed" true (Slowlog.enabled ());
  Alcotest.(check int) "threshold readback" 5 (Slowlog.threshold_ms ());
  Slowlog.note ~wall_ns:4_999_999 (fun () ->
      forced := true;
      mk_entry "fast");
  Alcotest.(check bool) "below threshold skipped" false !forced;
  Slowlog.note ~wall_ns:5_000_000 (fun () -> mk_entry "q1");
  Slowlog.note ~wall_ns:12_000_000 (fun () -> mk_entry "q2");
  (match Slowlog.entries () with
  | [ a; b ] ->
      Alcotest.(check string) "oldest first" "q1" a.Slowlog.query;
      Alcotest.(check string) "newest last" "q2" b.Slowlog.query
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l));
  (* threshold 0 records everything; the ring stays bounded *)
  Slowlog.set_threshold_ms 0;
  Slowlog.set_capacity 2;
  for k = 1 to 5 do
    Slowlog.note ~wall_ns:0 (fun () -> mk_entry (Printf.sprintf "w%d" k))
  done;
  Alcotest.(check (list string)) "ring keeps newest two" [ "w4"; "w5" ]
    (List.map (fun (e : Slowlog.entry) -> e.query) (Slowlog.entries ()))

let test_slowlog_rendering () =
  let es = [ mk_entry ~request_id:0xabc "VS(x=1, y in [2, 3])"; mk_entry "q\"2" ] in
  let txt = Slowlog.to_text es in
  Alcotest.(check bool) "text has hex request id" true (contains txt "abc");
  Alcotest.(check bool) "text has query" true (contains txt "VS(x=1, y in [2, 3])");
  Alcotest.(check bool) "empty text placeholder" true
    (contains (Slowlog.to_text []) "empty");
  let js = Slowlog.to_json es in
  Alcotest.(check bool) "json balanced" true (json_balanced js);
  Alcotest.(check bool) "json escapes queries" true (contains js "q\\\"2");
  Alcotest.(check bool) "json carries wait split" true
    (contains js "\"queue_wait_ns\": 1000000");
  Alcotest.(check bool) "empty json is an empty array" true
    (json_balanced (Slowlog.to_json []))

(* ---------------- LRU / reader cache stats ---------------- *)

module Int_store = Segdb_io.Block_store.Make (struct
  type t = int
end)

(* A reader's LRU shard counts its own hits and misses, mirrored in the
   [cache.hits] and [cache.misses] counters. An entry cached before its
   store's last write is a miss, not a hit, and is charged a read only
   once its block has left the shared pool. *)
let test_lru_hit_miss () =
  let module Rc = Segdb_io.Read_context in
  let pool = Segdb_io.Block_store.Pool.create ~capacity:1 in
  let s = Int_store.create ~pool ~stats:(Io_stats.create ()) () in
  let a = Int_store.alloc s 1 in
  (* the one-block pool sends [a] to disk *)
  let b = Int_store.alloc s 2 in
  let r = Rc.create () in
  let c_hits = Metrics.counter Metrics.default "cache.hits"
  and c_misses = Metrics.counter Metrics.default "cache.misses" in
  Fun.protect ~finally:Control.disable @@ fun () ->
  Control.enable ();
  let step label addr ~value ~hit ~reads =
    let h0 = Rc.cache_hits r and m0 = Rc.cache_misses r in
    let ch0 = Metrics.value c_hits and cm0 = Metrics.value c_misses in
    let r0 = Io_stats.reads (Rc.stats r) in
    let got = Rc.with_reader r (fun () -> Int_store.read s addr) in
    let hits = if hit then 1 else 0 in
    Alcotest.(check int) (label ^ ": value") value got;
    Alcotest.(check (pair int int)) (label ^ ": reader hits, misses") (hits, 1 - hits)
      (Rc.cache_hits r - h0, Rc.cache_misses r - m0);
    Alcotest.(check (pair int int)) (label ^ ": cache.hits, cache.misses") (hits, 1 - hits)
      (Metrics.value c_hits - ch0, Metrics.value c_misses - cm0);
    Alcotest.(check int) (label ^ ": reads charged") reads (Io_stats.reads (Rc.stats r) - r0)
  in
  step "cold, on disk" a ~value:1 ~hit:false ~reads:1;
  step "cold, in the pool" b ~value:2 ~hit:false ~reads:0;
  step "warm" a ~value:1 ~hit:true ~reads:0;
  Int_store.write s b 20;
  step "stale, still in the pool" b ~value:20 ~hit:false ~reads:0;
  step "refetched" b ~value:20 ~hit:true ~reads:0;
  (* the write brings [a] back into the pool and sends [b] to disk *)
  Int_store.write s a 10;
  step "stale, left the pool" b ~value:20 ~hit:false ~reads:1;
  step "stale, back in the pool" a ~value:10 ~hit:false ~reads:0

let test_reader_cache_stats () =
  let n = 60 in
  let segs = W.roads (Rng.create 5) ~n ~span:100.0 in
  let db = Db.create ~backend:`Solution2 ~block:8 ~pool_blocks:4 segs in
  let r = Db.reader ~cache_blocks:64 db in
  let q = Segdb_geom.Vquery.line ~x:50.0 in
  ignore (Db.query_ids_r db r q);
  let h1 = Segdb_io.Read_context.cache_hits r in
  let m1 = Segdb_io.Read_context.cache_misses r in
  Alcotest.(check bool) "cold run misses" true (m1 > 0);
  ignore (Db.query_ids_r db r q);
  Alcotest.(check bool) "warm run hits" true (Segdb_io.Read_context.cache_hits r > h1);
  Alcotest.(check int) "warm run adds no misses" m1 (Segdb_io.Read_context.cache_misses r)

(* ---------------- parallel worker stats ---------------- *)

let test_parallel_query_stats () =
  let n = 200 in
  let segs = W.roads (Rng.create 7) ~n ~span:100.0 in
  let db = Db.create ~backend:`Solution2 ~block:8 ~pool_blocks:8 segs in
  let rng = Rng.create 8 in
  let qs = Array.init 40 (fun _ -> Segdb_geom.Vquery.line ~x:(Rng.float rng 100.0)) in
  let expect = Array.map (fun q -> Db.query_ids db q) qs in
  let pool = Exec.create ~workers:2 () in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) @@ fun () ->
  let run domains = Exec.run pool db (Exec.request qs) ~domains in
  let outcome, stats = run 3 in
  Alcotest.(check bool) "answers match serial" true (outcome = Exec.Ok expect);
  Alcotest.(check int) "one row per worker" 3 (Array.length stats);
  let total = Array.fold_left (fun acc (w : Exec.worker_stats) -> acc + w.queries) 0 stats in
  Alcotest.(check int) "workers served the whole batch" (Array.length qs) total;
  Array.iteri
    (fun k (w : Exec.worker_stats) ->
      Alcotest.(check int) "worker id" k w.worker;
      Alcotest.(check bool) "counters non-negative" true
        (w.reads >= 0 && w.cache_hits >= 0 && w.cache_misses >= 0))
    stats;
  (* with obs on, every query's latency lands in its backend span's
     histogram, whichever participant answered it *)
  with_tracing (fun () ->
      let _ = run 2 in
      match Metrics.histogram Metrics.default "span.query.solution2.ns" with
      | Some h -> Alcotest.(check int) "latency samples" (Array.length qs) (Histogram.count h)
      | None -> Alcotest.fail "span.query.solution2.ns missing")

(* ---------------- tracing never changes answers ---------------- *)

let backends : (string * Db.backend) list =
  [
    ("naive", `Naive);
    ("rtree", `Rtree);
    ("solution1", `Solution1);
    ("solution2", `Solution2);
  ]

let random_query rng =
  let x = Rng.float rng 120.0 -. 10.0 in
  match Rng.int rng 4 with
  | 0 -> Segdb_geom.Vquery.line ~x
  | 1 -> Segdb_geom.Vquery.ray_up ~x ~ylo:(Rng.float rng 100.0)
  | 2 -> Segdb_geom.Vquery.ray_down ~x ~yhi:(Rng.float rng 100.0)
  | _ ->
      let y = Rng.float rng 100.0 in
      Segdb_geom.Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 40.0)

let prop_tracing_is_transparent =
  QCheck.Test.make ~name:"enabling tracing never changes query results" ~count:25
    QCheck.(pair (int_bound 100_000) (int_bound 100))
    (fun (seed, n) ->
      let segs = W.roads (Rng.create seed) ~n ~span:100.0 in
      let rng = Rng.create (seed + 1) in
      let qs = Array.init 12 (fun _ -> random_query rng) in
      List.for_all
        (fun (_, backend) ->
          let db = Db.create ~backend ~block:8 ~pool_blocks:8 segs in
          let plain = Array.map (fun q -> Db.query_ids db q) qs in
          let traced =
            with_tracing (fun () -> Array.map (fun q -> Db.query_ids db q) qs)
          in
          plain = traced)
        backends)

(* ---------------- exporters ---------------- *)

let exporter_registry () =
  let r = Metrics.create () in
  Metrics.add (Metrics.counter r "io.reads") 42;
  Metrics.set_gauge (Metrics.gauge r "pool.resident") 7;
  List.iter (Metrics.observe r "span.pst.report.ns") [ 100; 2000; 2500; 90000 ];
  List.iter (Metrics.observe r "span.pst.report.blocks") [ 0; 1; 1; 3 ];
  r

let test_exporters () =
  let r = exporter_registry () in
  let txt = Export.text r in
  Alcotest.(check bool) "text mentions counter" true
    (contains txt "io.reads");
  let js = Export.json r in
  Alcotest.(check bool) "json balanced" true (json_balanced js);
  Alcotest.(check bool) "json has histogram stats" true
    (contains js "\"p99\"");
  let prom = Export.prometheus r in
  (* every non-comment line is "name[{le=...}] number"; cumulative
     buckets end with the +Inf bucket equal to _count *)
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.fail ("prometheus line without value: " ^ line)
           | Some i -> (
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               match float_of_string_opt v with
               | Some _ -> ()
               | None -> Alcotest.fail ("prometheus value not numeric: " ^ line)));
  Alcotest.(check bool) "prometheus prefixes names" true
    (contains prom "segdb_io_reads 42");
  Alcotest.(check bool) "prometheus cumulative +Inf" true
    (contains prom "segdb_span_pst_report_ns_bucket{le=\"+Inf\"} 4");
  let summary = Export.phase_summary r in
  Alcotest.(check bool) "phase summary extracts phase" true
    (contains summary "pst.report")

let test_prometheus_label_escaping () =
  let r = exporter_registry () in
  let nasty = "unix:/tmp/a \"b\"\\c\nd" in
  let prom = Export.prometheus ~labels:[ ("addr", nasty); ("host-name", "h1") ] r in
  (* the raw value (with its quote and newline) must never reach the
     output; the escaped form must, with backslash, double quote and
     newline all encoded per the exposition format *)
  Alcotest.(check bool) "raw value absent" false (contains prom nasty);
  Alcotest.(check bool) "escaped value present" true
    (contains prom "addr=\"unix:/tmp/a \\\"b\\\"\\\\c\\nd\"");
  Alcotest.(check bool) "label names sanitized" true (contains prom "host_name=\"h1\"");
  (* the histogram's le label composes with the shared labels *)
  Alcotest.(check bool) "le composes with labels" true
    (contains prom "host_name=\"h1\",le=\"+Inf\"}");
  (* every non-comment line still ends in exactly one numeric value:
     an unescaped newline would have split a sample across lines *)
  String.split_on_char '\n' prom
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.fail ("prometheus line without value: " ^ line)
           | Some i ->
               let v = String.sub line (i + 1) (String.length line - i - 1) in
               if float_of_string_opt v = None then
                 Alcotest.fail ("prometheus value not numeric: " ^ line))

(* ---------------- rates from two scrapes ---------------- *)

(* What [segdb_cli top] and a Prometheus server do: render the
   registry, parse it back, diff two scrapes. The registry is
   unlabelled, so every sample line is "name value" with no braces. *)
let scrape reg = Export.parse_prometheus (Export.prometheus reg)

let test_scrape_rates_and_reset () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "t.scrape.reqs" in
  let s0 = scrape reg in
  Metrics.add c 50;
  let s1 = scrape reg in
  Alcotest.(check (option (float 0.01))) "+50 between scrapes reads 50" (Some 50.0)
    (Export.delta s0 s1 "segdb_t_scrape_reqs");
  (* a counter that moves backwards (registry reset = process restart)
     reads 0 instead of going negative *)
  Metrics.reset reg;
  Metrics.add c 5;
  let s2 = scrape reg in
  Alcotest.(check (option (float 0.0001))) "reset reads 0" (Some 0.0)
    (Export.delta s1 s2 "segdb_t_scrape_reqs")

let test_scrape_window_p99 () =
  let reg = Metrics.create () in
  let s0 = scrape reg in
  for _ = 1 to 100 do
    Metrics.observe reg "t.scrape.lat" 1000
  done;
  let s1 = scrape reg in
  match Export.window_percentile s0 s1 "segdb_t_scrape_lat" 0.99 with
  | None -> Alcotest.fail "expected a windowed p99"
  | Some p ->
      (* every sample was 1000, so the p99 lands inside 1000's dyadic
         bucket *)
      let lo, hi = Histogram.bucket_bounds (Histogram.bucket_of 1000) in
      Alcotest.(check bool) "p99 inside the sample's bucket" true
        (p >= float_of_int lo && p <= float_of_int hi)

let suite =
  ( "obs",
    [
      Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
      Alcotest.test_case "histogram percentiles" `Quick test_percentiles_exact;
      Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges;
      qtest prop_merge_associative;
      Alcotest.test_case "cross-domain histogram merge" `Quick test_merge_across_domains;
      Alcotest.test_case "metrics registry basics + merge" `Quick test_registry_basics;
      Alcotest.test_case "io_stats increments are atomic" `Quick test_atomic_io_stats;
      Alcotest.test_case "trace ring wraparound" `Quick test_ring_wraparound;
      Alcotest.test_case "span nesting feeds histograms" `Quick test_span_nesting_and_histograms;
      Alcotest.test_case "empty spans measure nonzero time" `Quick test_empty_span_resolution;
      Alcotest.test_case "per-domain rings merge losslessly" `Quick test_per_domain_rings;
      Alcotest.test_case "a ring read while its owner wraps is whole" `Quick
        test_ring_whole_events;
      Alcotest.test_case "recording puts nothing in the major heap" `Quick
        test_record_no_major_words;
      Alcotest.test_case "request-id propagation" `Quick test_request_ids;
      Alcotest.test_case "trace-event JSON well-formed" `Quick test_trace_json_wellformed;
      Alcotest.test_case "log levels, ring, logfmt" `Quick test_log_levels_and_ring;
      Alcotest.test_case "log render escaping" `Quick test_log_render_escaping;
      Alcotest.test_case "slowlog threshold + ring" `Quick test_slowlog_threshold_and_ring;
      Alcotest.test_case "slowlog rendering" `Quick test_slowlog_rendering;
      Alcotest.test_case "lru hit/miss counters" `Quick test_lru_hit_miss;
      Alcotest.test_case "reader cache stats" `Quick test_reader_cache_stats;
      Alcotest.test_case "parallel_query_stats" `Quick test_parallel_query_stats;
      qtest prop_tracing_is_transparent;
      Alcotest.test_case "exporters: text/json/prometheus" `Quick test_exporters;
      Alcotest.test_case "prometheus label escaping" `Quick test_prometheus_label_escaping;
      Alcotest.test_case "sampler: rates + reset clamp" `Quick test_scrape_rates_and_reset;
      Alcotest.test_case "sampler: windowed p99" `Quick test_scrape_window_p99;
    ] )
