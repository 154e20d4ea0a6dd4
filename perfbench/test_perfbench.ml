(* The benchmark's own logic: its inputs, its percentile rule and its
   derived metrics. *)

open Perfbench
module Workload = Segdb_workload.Workload
module Segment = Segdb_geom.Segment

let spec name = Option.get (Plan.find name)

let id_of = function
  | Plan.Insert s | Plan.Delete s -> Some s.Segment.id
  | Plan.Query _ -> None

let test_pure () =
  List.iter
    (fun (s : Plan.spec) ->
      let a = Plan.make s ~seed:7 and b = Plan.make s ~seed:7 in
      Alcotest.(check bool) (s.name ^ ": same seed, same ops") true (a.ops = b.ops && a.probe = b.probe);
      Alcotest.(check bool) (s.name ^ ": same seed, same data") true (a.loaded = b.loaded && a.pool = b.pool);
      let c = Plan.make s ~seed:8 in
      Alcotest.(check bool) (s.name ^ ": another seed, other ops") false (a.ops = c.ops))
    Plan.specs

let test_lookup_churn_share_data () =
  let l = Plan.make (spec "lookup") ~seed:3 and c = Plan.make (spec "churn") ~seed:3 in
  Alcotest.(check bool) "churn runs on lookup's snapshot" true (l.loaded = c.loaded && l.pool = c.pool)

let test_nct () =
  List.iter
    (fun name ->
      let p = Plan.make (spec name) ~seed:11 in
      Alcotest.(check bool)
        (name ^ ": loaded + inserted is NCT")
        true
        (Workload.verify_nct_fast (Array.append p.loaded p.pool)))
    [ "lookup"; "scan" ]

(* Walks [ops] against a model of the live ids: every delete names a
   live id, every insert an absent one. *)
let walk live ops =
  Array.iter
    (fun op ->
      match (op, id_of op) with
      | Plan.Insert _, Some id ->
          if Hashtbl.mem live id then Alcotest.failf "insert of live id %d" id;
          Hashtbl.replace live id ()
      | Plan.Delete _, Some id ->
          if not (Hashtbl.mem live id) then Alcotest.failf "delete of absent id %d" id;
          Hashtbl.remove live id
      | _ -> ())
    ops

let test_deletes_live () =
  List.iter
    (fun (s : Plan.spec) ->
      let p = Plan.make s ~seed:5 in
      let ids = Array.map (fun (x : Segment.t) -> x.id) p.loaded in
      let live = Hashtbl.create (Array.length ids) in
      Array.iter (fun id -> Hashtbl.replace live id ()) ids;
      walk live p.ops;
      (* a period ends where it began, so a run may cycle it *)
      Alcotest.(check int) (s.name ^ ": period restores the set") (Array.length ids) (Hashtbl.length live);
      Alcotest.(check bool) (s.name ^ ": same ids") true (Array.for_all (Hashtbl.mem live) ids);
      walk live p.ops;
      walk live p.probe)
    Plan.specs

let test_mix () =
  let p = Plan.make (spec "churn") ~seed:2 in
  let n = Array.length p.ops in
  let writes = Array.fold_left (fun a op -> if id_of op <> None then a + 1 else a) 0 p.ops in
  Alcotest.(check int) "40% writes" (2 * n / 5) writes;
  Alcotest.(check int) "no probe: churn's writes are in its mix" 0 (Array.length p.probe)

let test_percentile () =
  let xs n = Array.init n float_of_int in
  Alcotest.(check bool) "p99 of 999 refused" true (Result.is_error (Pct.percentile ~p:0.99 (xs 999)));
  Alcotest.(check (result (float 0.) string)) "p99 of 1000" (Ok 989.) (Pct.percentile ~p:0.99 (xs 1000));
  Alcotest.(check bool) "p50 of 19 refused" true (Result.is_error (Pct.percentile ~p:0.5 (xs 19)));
  Alcotest.(check (result (float 0.) string)) "p50 of 20" (Ok 9.) (Pct.percentile ~p:0.5 (xs 20));
  Alcotest.(check (float 0.)) "median of repeats" 2.5 (Pct.median [| 4.; 1.; 2.; 3. |])

let test_derived () =
  let inputs =
    [
      ("exec.request_us", 30.);
      ("core.query_us", 8.);
      ("net.rtt_us", 50.);
      ("wire.codec_us", 2.);
      ("net.untraced_query_p50_us", 50.5);
      ("server.cpu_us_per_op", 40.);
      ("server.no_obs_cpu_us_per_op", 37.);
      ("core.cache_hits", 3.);
      ("core.cache_misses", 1.);
      ("server.major_words", 1100.);
      ("server.setup_major_words", 100.);
      ("server.ops", 10.);
    ]
  in
  let out = Derived.apply inputs in
  let get k = List.assoc k out in
  Alcotest.(check (float 1e-9)) "handoff = request - query" 22. (get "exec.handoff_us");
  Alcotest.(check (float 1e-9)) "outside exec = rtt - request - codec" 18. (get "net.outside_exec_us");
  Alcotest.(check (float 1e-9)) "trace overhead = traced - untraced" (-0.5) (get "net.trace_overhead_us");
  Alcotest.(check (float 1e-9)) "obs = on - off" 3. (get "obs.cpu_us_per_op");
  Alcotest.(check (float 1e-9)) "hit ratio" 0.75 (get "core.cache_hit_ratio");
  Alcotest.(check (float 1e-9)) "major words per op" 100. (get "server.major_words_per_op");
  List.iter
    (fun (r : Derived.rule) ->
      let without = List.filter (fun (k, _) -> k <> List.hd r.inputs) inputs in
      match Derived.apply without with
      | _ -> Alcotest.failf "%s computed without %s" r.name (List.hd r.inputs)
      | exception Invalid_argument _ -> ())
    Derived.rules

let test_cpu_list () =
  Alcotest.(check (list int)) "one CPU" [ 1 ] (Proc.cpu_list "1");
  Alcotest.(check (list int)) "ranges and singles" [ 0; 1; 2; 5 ] (Proc.cpu_list "0-2,5\n");
  Alcotest.check_raises "a reversed range" (Invalid_argument "Proc.cpu_list: \"3-1\"") (fun () ->
      ignore (Proc.cpu_list "3-1"))

let () =
  Alcotest.run "perfbench"
    [
      ( "plan",
        [
          Alcotest.test_case "ops are a pure function of the seed" `Quick test_pure;
          Alcotest.test_case "churn shares lookup's data" `Quick test_lookup_churn_share_data;
          Alcotest.test_case "loaded + inserted is NCT" `Slow test_nct;
          Alcotest.test_case "deletes name only live ids" `Quick test_deletes_live;
          Alcotest.test_case "churn mix" `Quick test_mix;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "percentile refuses a thin tail" `Quick test_percentile;
          Alcotest.test_case "derived from named inputs" `Quick test_derived;
          Alcotest.test_case "CPU lists" `Quick test_cpu_list;
        ] );
    ]
