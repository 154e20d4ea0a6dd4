(* Workload generator tests: sizes, determinism and — crucially — the
   NCT certification of every family, exact where coordinates are
   integral. *)

open Segdb_geom
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng

let qtest = QCheck_alcotest.to_alcotest

let seeds = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 10_000)

(* Generic float-coordinate crossing check with a strict interior
   intersection test (touching allowed). O(n^2); test sizes only. *)
let float_nct segs =
  let strictly_crosses (a : Segment.t) (b : Segment.t) =
    let o (px, py) (qx, qy) (rx, ry) =
      let d = ((qx -. px) *. (ry -. py)) -. ((qy -. py) *. (rx -. px)) in
      if d > 1e-12 then 1 else if d < -1e-12 then -1 else 0
    in
    let p1 = (a.Segment.x1, a.Segment.y1) and p2 = (a.Segment.x2, a.Segment.y2) in
    let p3 = (b.Segment.x1, b.Segment.y1) and p4 = (b.Segment.x2, b.Segment.y2) in
    o p1 p2 p3 * o p1 p2 p4 < 0 && o p3 p4 p1 * o p3 p4 p2 < 0
  in
  let n = Array.length segs in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if strictly_crosses segs.(i) segs.(j) then ok := false
    done
  done;
  !ok

let prop_roads_nct =
  QCheck.Test.make ~name:"roads are NCT" ~count:30 seeds (fun seed ->
      let segs = W.roads (Rng.create seed) ~n:150 ~span:100.0 in
      Array.length segs = 150 && float_nct segs)

let prop_uniform_nct =
  QCheck.Test.make ~name:"uniform is NCT" ~count:30 seeds (fun seed ->
      let segs = W.uniform (Rng.create seed) ~n:150 ~span:100.0 in
      Array.length segs > 0 && float_nct segs)

let prop_grid_city_nct_exact =
  QCheck.Test.make ~name:"grid city is exactly NCT" ~count:20 seeds (fun seed ->
      let segs = W.grid_city (Rng.create seed) ~n:200 ~span:80 ~max_len:20 in
      Array.length segs > 0 && W.verify_nct segs)

let prop_temporal_nct_exact =
  QCheck.Test.make ~name:"temporal is exactly NCT" ~count:20 seeds (fun seed ->
      let segs = W.temporal (Rng.create seed) ~n:200 ~keys:20 ~horizon:500 in
      Array.length segs > 0 && W.verify_nct segs)

let prop_fans_nct_exact =
  QCheck.Test.make ~name:"fans are exactly NCT" ~count:20 seeds (fun seed ->
      let segs = W.fans (Rng.create seed) ~n:200 ~centers:5 ~span:200 in
      Array.length segs > 0 && W.verify_nct segs)

let prop_deterministic =
  QCheck.Test.make ~name:"generators are seed-deterministic" ~count:20 seeds (fun seed ->
      let a = W.roads (Rng.create seed) ~n:50 ~span:10.0 in
      let b = W.roads (Rng.create seed) ~n:50 ~span:10.0 in
      a = b)

let prop_ids_sequential =
  QCheck.Test.make ~name:"ids are sequential" ~count:20 seeds (fun seed ->
      let segs = W.grid_city (Rng.create seed) ~n:100 ~span:60 ~max_len:15 in
      Array.for_all Fun.id (Array.mapi (fun i (s : Segment.t) -> s.Segment.id = i) segs))

let prop_line_based_order =
  QCheck.Test.make ~name:"line_based family is non-crossing at all depths" ~count:50 seeds
    (fun seed ->
      let ls = W.line_based (Rng.create seed) ~n:60 ~vspan:50.0 ~umax:20.0 in
      (* pairwise: order of crossings at any common depth matches key order *)
      let ok = ref true in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              if Lseg.compare_key a b < 0 then begin
                let u = Float.min a.Lseg.far_u b.Lseg.far_u in
                if Lseg.cross_v a u > Lseg.cross_v b u +. 1e-9 then ok := false
              end)
            ls)
        ls;
      !ok)

let test_query_generators () =
  let rng = Rng.create 3 in
  let qs = W.segment_queries rng ~n:50 ~span:100.0 ~selectivity:0.1 in
  Alcotest.(check int) "count" 50 (Array.length qs);
  Array.iter
    (fun (q : Vquery.t) ->
      Alcotest.(check bool) "height" true (Float.abs (q.yhi -. q.ylo -. 10.0) < 1e-9))
    qs;
  let ls = W.line_queries rng ~n:10 ~span:100.0 in
  Alcotest.(check int) "line count" 10 (Array.length ls);
  Array.iter
    (fun (q : Vquery.t) ->
      Alcotest.(check bool) "is line" true (q.ylo = neg_infinity && q.yhi = infinity);
      Alcotest.(check bool) "inside the span" true (0.0 <= q.x && q.x <= 100.0))
    ls

let test_empty_requests () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "roads 0" 0 (Array.length (W.roads rng ~n:0 ~span:10.0));
  Alcotest.(check int) "grid 0" 0 (Array.length (W.grid_city rng ~n:0 ~span:10 ~max_len:5));
  Alcotest.(check int) "temporal 0" 0 (Array.length (W.temporal rng ~n:0 ~keys:3 ~horizon:10));
  Alcotest.(check int) "fans 0" 0 (Array.length (W.fans rng ~n:0 ~centers:2 ~span:10))

let suite =
  ( "workload",
    [
      Alcotest.test_case "query generators" `Quick test_query_generators;
      Alcotest.test_case "empty requests" `Quick test_empty_requests;
      qtest prop_roads_nct;
      qtest prop_uniform_nct;
      qtest prop_grid_city_nct_exact;
      qtest prop_temporal_nct_exact;
      qtest prop_fans_nct_exact;
      qtest prop_deterministic;
      qtest prop_ids_sequential;
      qtest prop_line_based_order;
    ] )
