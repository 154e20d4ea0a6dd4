(* Core index tests: every backend must agree with the naive filter on
   every workload family and every query kind; structural invariants
   hold after builds and after insertions; boundary-exact queries
   report each segment once; I/O costs separate the indexes from the
   scan. *)

open Segdb_io
open Segdb_geom
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng
module S1 = Segdb_core.Solution1
module S2 = Segdb_core.Solution2
module Naive = Segdb_core.Naive
module Pst = Segdb_pst.Pst
module Vs = Segdb_core.Vs_index
module Db = Segdb_core.Segdb

let qtest = QCheck_alcotest.to_alcotest

let families =
  [
    ("roads", fun rng n -> W.roads rng ~n ~span:100.0);
    ("grid", fun rng n -> W.grid_city rng ~n ~span:100 ~max_len:25);
    ("temporal", fun rng n -> W.temporal rng ~n ~keys:12 ~horizon:200);
    ("fans", fun rng n -> W.fans rng ~n ~centers:4 ~span:100);
  ]

let scenario =
  QCheck.make
    ~print:(fun (seed, n, block, fam, x, y1, w) ->
      Printf.sprintf "seed=%d n=%d B=%d fam=%s x=%g y=[%g,%g]" seed n block fam x y1 (y1 +. w))
    QCheck.Gen.(
      let* seed = 0 -- 100_000 in
      let* n = 0 -- 150 in
      let* block = oneofl [ 4; 8; 16 ] in
      let* fam = oneofl (List.map fst families) in
      let* x = float_range (-10.0) 110.0 in
      let* y1 = float_range (-10.0) 110.0 in
      let* w = float_range 0.0 60.0 in
      return (seed, n, block, fam, x, y1, w))

let gen_family fam rng n = (List.assoc fam families) rng n

let oracle segs q =
  Array.to_list segs |> List.filter (Vquery.matches q)
  |> List.map (fun (s : Segment.t) -> s.Segment.id)
  |> List.sort compare

(* Queries that exercise boundary-equality paths: abscissas snapped to
   actual endpoint values. *)
let interesting_xs segs x =
  if Array.length segs = 0 then [ x ]
  else
    [ x; segs.(Array.length segs / 2).Segment.x1; segs.(Array.length segs / 3).Segment.x2 ]

(* Every first-level boundary is an endpoint abscissa, so a line query
   at each distinct one lands on every boundary the tree can hold. *)
let endpoint_xs segs =
  Array.to_list segs
  |> List.concat_map (fun (s : Segment.t) -> [ s.Segment.x1; s.Segment.x2 ])
  |> List.sort_uniq compare

let check_backend (module M : Vs.S) cfg segs queries =
  let t = M.build cfg segs in
  List.for_all (fun q -> Vs.query_ids (module M) t q = oracle segs q) queries

let queries_of segs (x, y1, w) =
  List.concat_map
    (fun x ->
      [
        Vquery.segment ~x ~ylo:y1 ~yhi:(y1 +. w);
        Vquery.line ~x;
        Vquery.ray_up ~x ~ylo:y1;
        Vquery.ray_down ~x ~yhi:(y1 +. w);
      ])
    (interesting_xs segs x)
  @ List.map (fun x -> Vquery.line ~x) (endpoint_xs segs)

let prop_all_backends_oracle =
  QCheck.Test.make ~name:"all backends equal naive filter" ~count:250 scenario
    (fun (seed, n, block, fam, x, y1, w) ->
      let segs = gen_family fam (Rng.create seed) n in
      let queries = queries_of segs (x, y1, w) in
      let mk () = Vs.config ~pool_blocks:64 ~block () in
      check_backend (module Naive) (mk ()) segs queries
      && check_backend (module S1) (mk ()) segs queries
      && check_backend (module S2) (mk ()) segs queries
      && check_backend (module S2) (Vs.config ~pool_blocks:64 ~block ~cascade:false ()) segs queries
      && check_backend (module Segdb_core.Rtree_index) (mk ()) segs queries)

let prop_invariants =
  QCheck.Test.make ~name:"solution invariants after build" ~count:150 scenario
    (fun (seed, n, block, fam, _, _, _) ->
      let segs = gen_family fam (Rng.create seed) n in
      let cfg1 = Vs.config ~block () and cfg2 = Vs.config ~block () in
      let t1 = S1.build cfg1 segs and t2 = S2.build cfg2 segs in
      S1.check_invariants t1 && S2.check_invariants t2
      && S1.size t1 = Array.length segs
      && S2.size t2 = Array.length segs)

let prop_insert_oracle =
  QCheck.Test.make ~name:"solutions support insertion" ~count:120 scenario
    (fun (seed, n, block, fam, x, y1, w) ->
      QCheck.assume (n > 0);
      let segs = gen_family fam (Rng.create seed) n in
      let k = Array.length segs / 2 in
      let head = Array.sub segs 0 k in
      let queries = queries_of segs (x, y1, w) in
      let run (module M : Vs.S) =
        let cfg = Vs.config ~block () in
        let t = M.build cfg head in
        for i = k to Array.length segs - 1 do
          M.insert t segs.(i)
        done;
        M.size t = Array.length segs
        && List.for_all (fun q -> Vs.query_ids (module M) t q = oracle segs q) queries
      in
      let invariants_after_insert () =
        let t1 = S1.build (Vs.config ~block ()) head in
        let t2 = S2.build (Vs.config ~block ()) head in
        for i = k to Array.length segs - 1 do
          S1.insert t1 segs.(i);
          S2.insert t2 segs.(i)
        done;
        S1.check_invariants t1 && S2.check_invariants t2
      in
      run (module S1) && run (module S2) && run (module Naive) && invariants_after_insert ())

(* The first-level rebuild rule, pinned. Built on the segments whose
   right endpoint lies below the median one and grown by the rest in x1
   order, each tree piles its inserts into its rightmost kids, so the
   scapegoat rebuild fires in both solutions. The block counts move if
   the rebuild is skipped (125 and 135 blocks), if the heavy kid is
   rebuilt instead of its node (120 and 117), or if the share changes
   (the binary 3/4 to 1/2: 117 and 111; 4/fanout to 2/fanout: 118 and
   111). *)
let median_x2 segs =
  let x2s = Array.map (fun (s : Segment.t) -> s.x2) segs in
  Array.sort compare x2s;
  x2s.(Array.length x2s / 2)

let test_skewed_inserts_rebuild () =
  let segs = W.roads (Rng.create 5) ~n:500 ~span:1000.0 in
  let median = median_x2 segs in
  let left, right = List.partition (fun (s : Segment.t) -> s.x2 < median) (Array.to_list segs) in
  let right = List.sort (fun (a : Segment.t) (b : Segment.t) -> compare a.x1 b.x1) right in
  let queries = queries_of segs (median, 250.0, 500.0) in
  List.iter
    (fun (name, (module M : Vs.S), blocks) ->
      let t = M.build (Vs.config ~block:16 ()) (Array.of_list left) in
      List.iter (M.insert t) right;
      Alcotest.(check bool) (name ^ ": invariants") true (M.check_invariants t);
      List.iter
        (fun q ->
          Alcotest.(check (list int))
            (Format.asprintf "%s: %a" name Vquery.pp q)
            (oracle segs q)
            (Vs.query_ids (module M) t q))
        queries;
      Alcotest.(check int) (name ^ ": blocks") blocks (M.block_count t))
    [ ("solution1", (module S1 : Vs.S), 118); ("solution2", (module S2 : Vs.S), 121) ]

(* Ordered insert streams keep the built shape: the paper's space and
   update bounds (Theorem 1(i)/(iii), Lemma 3(iii)) hold for any insert
   order. One group feeds a blocked PST its segments in key order,
   reversed, or in runs of 48 consecutive keys shuffled (clustered); the
   other feeds Solutions 1 and 2 roads segments in x1 order, reversed,
   or in generation order. Each stream runs from empty and onto a built
   half: the stream's first half for the PST, the segments whose x2
   lies below the median x2 for the solutions. B = 16, 16-block pool.
   The constants carry about 1.5x headroom over the largest values 300
   cases of this property measured (in brackets). Under the old rules
   (a share that never fired at PST fan-outs 3 and 4, a rebuild of the
   heavy kid instead of its node) a key-ordered PST from empty at
   n = 2,048 stood 41 high and paid 22 I/O per insert, and Solution 1
   fed x1-ordered inserts from empty paid 332. *)
let stream_pst_height = 6.5 (* PST height <= c log_B n [4.39] *)
let stream_pst_blocks = 3.2 (* PST blocks <= c n/B [2.13] *)
let stream_pst_io = 1.5 (* PST I/O per insert [0.90] *)
let stream_sol_blocks = 8.0 (* Solution 1/2 blocks <= c n/B [5.46] *)
let stream_sol_io = 7.0 (* Solution 1/2 I/O per insert [4.52] *)

let io_total io = Io_stats.snapshot_total (Io_stats.snapshot io)

let prop_ordered_streams =
  QCheck.Test.make ~name:"ordered insert streams keep the built shape" ~count:10
    (QCheck.make
       ~print:(fun (seed, n, order, from_empty) ->
         Printf.sprintf "seed=%d n=%d order=%d from_empty=%b" seed n order from_empty)
       QCheck.Gen.(quad (0 -- 100_000) (256 -- 2048) (0 -- 2) bool))
    (fun (seed, n, order, from_empty) ->
      let block = 16 in
      let per_block m = float_of_int m /. float_of_int block in
      let pst_ok =
        let lsegs = W.line_based (Rng.create seed) ~n ~vspan:1000.0 ~umax:100.0 in
        Array.sort Lseg.compare_key lsegs;
        let stream =
          match order with
          | 0 -> lsegs
          | 1 -> Array.init n (fun i -> lsegs.(n - 1 - i))
          | _ ->
              let runs =
                Array.init ((n + 47) / 48) (fun i -> Array.sub lsegs (i * 48) (min 48 (n - (i * 48))))
              in
              Rng.shuffle (Rng.create seed) runs;
              Array.concat (Array.to_list runs)
        in
        let k = if from_empty then 0 else n / 2 in
        let io = Io_stats.create () in
        let t =
          Pst.blocked ~node_capacity:block
            ~pool:(Block_store.Pool.create ~capacity:16)
            ~stats:io (Array.sub stream 0 k)
        in
        let before = io_total io in
        Array.iter (Pst.insert t) (Array.sub stream k (n - k));
        let per_insert = float_of_int (io_total io - before) /. float_of_int (n - k) in
        let rng = Rng.create (seed + 1) in
        let queries =
          Lseg.query ~uq:0.0 ~vlo:neg_infinity ~vhi:infinity
          :: List.init 24 (fun _ ->
                 let v = Rng.float rng 1000.0 in
                 Lseg.query ~uq:(Rng.float rng 80.0) ~vlo:v ~vhi:(v +. 50.0))
        in
        let ids l = List.sort compare (List.map (fun (s : Lseg.t) -> s.Lseg.id) l) in
        Pst.check_invariants t
        && List.for_all
             (fun q ->
               ids (Pst.query_list t q)
               = ids (List.filter (Lseg.matches q) (Array.to_list lsegs)))
             queries
        && float_of_int (Pst.height t)
           <= stream_pst_height *. log (float_of_int n) /. log (float_of_int block)
        && float_of_int (Pst.block_count t) <= stream_pst_blocks *. per_block n
        && per_insert <= stream_pst_io
      in
      let sol_ok =
        let segs = W.roads (Rng.create seed) ~n ~span:1000.0 in
        let built, rest =
          if from_empty then ([], Array.to_list segs)
          else
            let median = median_x2 segs in
            List.partition (fun (s : Segment.t) -> s.x2 < median) (Array.to_list segs)
        in
        let by_x1 (a : Segment.t) (b : Segment.t) = compare a.x1 b.x1 in
        let stream =
          match order with
          | 0 -> List.stable_sort by_x1 rest
          | 1 -> List.rev (List.stable_sort by_x1 rest)
          | _ -> rest
        in
        let expected = List.map (fun q -> (q, oracle segs q)) (queries_of segs (500.0, 250.0, 500.0)) in
        List.for_all
          (fun (module M : Vs.S) ->
            let cfg = Vs.config ~pool_blocks:16 ~block () in
            let t = M.build cfg (Array.of_list built) in
            let before = io_total cfg.stats in
            List.iter (M.insert t) stream;
            let per_insert =
              float_of_int (io_total cfg.stats - before) /. float_of_int (List.length stream)
            in
            M.check_invariants t
            && List.for_all (fun (q, ids) -> Vs.query_ids (module M) t q = ids) expected
            && float_of_int (M.block_count t) <= stream_sol_blocks *. per_block (Array.length segs)
            && per_insert <= stream_sol_io)
          [ (module S1 : Vs.S); (module S2 : Vs.S) ]
      in
      pst_ok && sol_ok)

let test_facade () =
  let rng = Rng.create 5 in
  let segs = W.roads rng ~n:200 ~span:100.0 in
  let q = Vquery.segment ~x:40.0 ~ylo:10.0 ~yhi:60.0 in
  let expected = oracle segs q in
  List.iter
    (fun (name, backend) ->
      let db = Db.create ~backend ~block:16 segs in
      Alcotest.(check (list int)) (name ^ " answers") expected (Db.query_ids db q);
      Alcotest.(check int) (name ^ " size") 200 (Db.size db);
      Alcotest.(check bool) (name ^ " blocks > 0") true (Db.block_count db > 0))
    Db.all_backends

let test_facade_of_segments () =
  let db =
    Db.of_segments ~backend:`Solution1
      [ [ (0.0, 0.0); (1.0, 1.0); (2.0, 0.5) ]; [ (0.0, 5.0); (2.0, 5.0) ] ]
  in
  Alcotest.(check int) "three segments" 3 (Db.size db);
  Alcotest.(check int) "stab all" 3 (Db.count db (Vquery.line ~x:1.0))

let test_duplicate_ids_rejected () =
  let segs = [| Segment.make ~id:1 (0.0, 0.0) (1.0, 1.0); Segment.make ~id:1 (2.0, 0.0) (3.0, 1.0) |] in
  List.iter
    (fun (name, backend) ->
      match Db.create ~backend segs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (name ^ ": duplicate ids must be rejected"))
    Db.all_backends

let test_empty_db () =
  List.iter
    (fun (_, backend) ->
      let db = Db.create ~backend [||] in
      Alcotest.(check int) "size" 0 (Db.size db);
      Alcotest.(check int) "query" 0 (Db.count db (Vquery.line ~x:0.0)))
    Db.all_backends

let test_io_separation () =
  (* At n = 30k the solutions must answer thin queries in far fewer
     I/Os than the naive scan. *)
  let rng = Rng.create 11 in
  let segs = W.roads rng ~n:30_000 ~span:1000.0 in
  let qrng = Rng.create 12 in
  let queries = W.segment_queries qrng ~n:30 ~span:1000.0 ~selectivity:0.01 in
  let cost backend =
    let db = Db.create ~backend ~block:64 ~pool_blocks:16 segs in
    let io = Db.io db in
    Io_stats.reset io;
    Array.iter (fun q -> ignore (Db.count db q)) queries;
    Io_stats.reads io
  in
  let naive = cost `Naive and s1 = cost `Solution1 and s2 = cost `Solution2 in
  Alcotest.(check bool)
    (Printf.sprintf "s1 %d << naive %d" s1 naive)
    true
    (s1 * 4 < naive);
  Alcotest.(check bool)
    (Printf.sprintf "s2 %d << naive %d" s2 naive)
    true
    (s2 * 4 < naive)

let test_cascade_counters () =
  (* cascading only matters with long fragments: use wide co-sorted
     lines that span many slabs *)
  let rng = Rng.create 21 in
  let n = 20_000 in
  let bases = Array.init n (fun _ -> Rng.float rng 1000.0) in
  let slopes = Array.init n (fun _ -> Rng.float rng 0.4 -. 0.2) in
  Array.sort compare bases;
  Array.sort compare slopes;
  let segs =
    Array.init n (fun i ->
        let x1 = Rng.float rng 300.0 in
        let x2 = x1 +. 300.0 +. Rng.float rng 400.0 in
        let y x = bases.(i) +. (slopes.(i) *. x) in
        Segment.make ~id:i (x1, y x1) (x2, y x2))
  in
  let cfg = Vs.config ~block:64 ~pool_blocks:16 () in
  let t = S2.build cfg segs in
  let qrng = Rng.create 22 in
  Array.iter
    (fun q -> ignore (Vs.query_ids (module S2) t q))
    (W.segment_queries qrng ~n:20 ~span:1000.0 ~selectivity:0.2);
  let guided, fallback = S2.cascade_counters t in
  Alcotest.(check bool)
    (Printf.sprintf "cascading active: guided=%d fallback=%d" guided fallback)
    true
    (guided > 0)

let suite =
  ( "core",
    [
      Alcotest.test_case "facade backends agree" `Quick test_facade;
      Alcotest.test_case "facade of_segments" `Quick test_facade_of_segments;
      Alcotest.test_case "duplicate ids rejected" `Quick test_duplicate_ids_rejected;
      Alcotest.test_case "empty db" `Quick test_empty_db;
      Alcotest.test_case "io separation from naive" `Quick test_io_separation;
      Alcotest.test_case "cascade counters" `Quick test_cascade_counters;
      qtest prop_all_backends_oracle;
      qtest prop_invariants;
      qtest prop_insert_oracle;
      Alcotest.test_case "skewed inserts pin the rebuild rules" `Quick
        test_skewed_inserts_rebuild;
      qtest prop_ordered_streams;
    ] )

let prop_delete_oracle =
  QCheck.Test.make ~name:"all backends support deletion" ~count:100 scenario
    (fun (seed, n, block, fam, x, y1, w) ->
      QCheck.assume (n > 0);
      let segs = gen_family fam (Rng.create seed) n in
      QCheck.assume (Array.length segs > 0);
      (* delete every third segment *)
      let doomed, kept =
        Array.to_list segs |> List.partition (fun (s : Segment.t) -> s.Segment.id mod 3 = 0)
      in
      let kept = Array.of_list kept in
      let queries = queries_of segs (x, y1, w) in
      let expect q =
        Array.to_list kept |> List.filter (Vquery.matches q)
        |> List.map (fun (s : Segment.t) -> s.Segment.id)
        |> List.sort compare
      in
      let run (module M : Vs.S) =
        let cfg = Vs.config ~block () in
        let t = M.build cfg segs in
        List.for_all (fun s -> M.delete t s) doomed
        && List.for_all (fun s -> not (M.delete t s)) doomed (* gone *)
        && M.size t = Array.length kept
        && List.for_all (fun q -> Vs.query_ids (module M) t q = expect q) queries
      in
      run (module Naive) && run (module S1) && run (module S2)
      && run (module Segdb_core.Rtree_index))

let prop_mixed_ops =
  QCheck.Test.make ~name:"interleaved insert/delete keep answers exact" ~count:80 scenario
    (fun (seed, n, block, fam, x, y1, w) ->
      QCheck.assume (n > 2);
      let segs = gen_family fam (Rng.create seed) n in
      QCheck.assume (Array.length segs > 2);
      let k = Array.length segs / 2 in
      let run (module M : Vs.S) =
        let cfg = Vs.config ~block () in
        let t = M.build cfg (Array.sub segs 0 k) in
        (* interleave: insert one new, delete one old, re-insert an old one *)
        let live = Hashtbl.create 16 in
        Array.iteri (fun i s -> if i < k then Hashtbl.replace live i s) segs;
        for i = k to Array.length segs - 1 do
          M.insert t segs.(i);
          Hashtbl.replace live i segs.(i);
          let victim = i - k in
          if victim < k && victim mod 2 = 0 then begin
            if not (M.delete t segs.(victim)) then failwith "delete failed";
            Hashtbl.remove live victim
          end;
          (* the victim deleted two steps ago returns under its id and geometry *)
          let back = victim - 2 in
          if back >= 0 && back < k && back mod 2 = 0 then begin
            M.insert t segs.(back);
            Hashtbl.replace live back segs.(back)
          end
        done;
        let queries = queries_of segs (x, y1, w) in
        List.for_all
          (fun q ->
            let expect =
              Hashtbl.fold
                (fun _ (s : Segment.t) acc ->
                  if Vquery.matches q s then s.Segment.id :: acc else acc)
                live []
              |> List.sort compare
            in
            Vs.query_ids (module M) t q = expect)
          queries
      in
      run (module S1) && run (module S2) && run (module Segdb_core.Rtree_index))

let prop_delete_invariants =
  QCheck.Test.make ~name:"invariants survive deletion" ~count:80 scenario
    (fun (seed, n, block, fam, _, _, _) ->
      QCheck.assume (n > 0);
      let segs = gen_family fam (Rng.create seed) n in
      QCheck.assume (Array.length segs > 0);
      let doomed =
        Array.to_list segs |> List.filter (fun (s : Segment.t) -> s.Segment.id mod 3 = 0)
      in
      let t1 = S1.build (Vs.config ~block ()) segs in
      let t2 = S2.build (Vs.config ~block ()) segs in
      List.iter (fun s -> ignore (S1.delete t1 s)) doomed;
      List.iter (fun s -> ignore (S2.delete t2 s)) doomed;
      S1.check_invariants t1 && S2.check_invariants t2)

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_delete_oracle; qtest prop_mixed_ops; qtest prop_delete_invariants ])

let prop_sloped_facade =
  QCheck.Test.make ~name:"Sloped facade equals direct geometric filter" ~count:150
    (QCheck.make
       ~print:(fun (seed, n, slope, x0, y0, len) ->
         Printf.sprintf "seed=%d n=%d m=%g from=(%g,%g) len=%g" seed n slope x0 y0 len)
       QCheck.Gen.(
         let* seed = 0 -- 100_000 in
         let* n = 1 -- 120 in
         let* slope = float_range (-2.0) 2.0 in
         let* x0 = float_range 0.0 80.0 in
         let* y0 = float_range 0.0 80.0 in
         let* len = float_range 1.0 40.0 in
         return (seed, n, slope, x0, y0, len)))
    (fun (seed, n, slope, x0, y0, len) ->
      (* keep segment directions away from the query slope so float
         orientation noise cannot flip a verdict *)
      let rng = Rng.create seed in
      let bases = Array.init n (fun _ -> Rng.float rng 100.0) in
      let drifts = Array.init n (fun _ -> Rng.float rng 0.5) in
      Array.sort compare bases;
      Array.sort compare drifts;
      let segs =
        (* lines y = base_i + dir_i * x with co-sorted (base, dir) never
           cross at x >= 0; clip each to an x-range *)
        Array.init n (fun i ->
            let x1 = Rng.float rng 50.0 in
            let x2 = x1 +. 10.0 +. Rng.float rng 50.0 in
            let dir = slope +. 2.5 +. drifts.(i) in
            let y x = bases.(i) +. (dir *. x) in
            Segment.make ~id:i (x1, y x1) (x2, y x2))
      in
      let sdb = Db.Sloped.create ~backend:`Solution2 ~slope segs in
      let p1 = (x0, y0) and p2 = (x0 +. len, y0 +. (slope *. len)) in
      let got =
        Db.Sloped.query sdb ~p1 ~p2
        |> List.map (fun (s : Segment.t) -> s.Segment.id)
        |> List.sort compare
      in
      let orient (ax, ay) (bx, by) (cx, cy) =
        let d = ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax)) in
        if d > 1e-7 then 1 else if d < -1e-7 then -1 else 0
      in
      let expected =
        Array.to_list segs
        |> List.filter (fun (s : Segment.t) ->
               let a = (s.Segment.x1, s.Segment.y1) and b = (s.Segment.x2, s.Segment.y2) in
               let d1 = orient a b p1 and d2 = orient a b p2 in
               let d3 = orient p1 p2 a and d4 = orient p1 p2 b in
               d1 * d2 < 0 && d3 * d4 < 0)
        |> List.map (fun (s : Segment.t) -> s.Segment.id)
        |> List.sort compare
      in
      (* allow boundary-touch divergence: every disagreement must be a
         near-tangency. The rotation adds relative float noise, so the
         excusable band is judged with a coarser tolerance than the
         oracle itself. *)
      let coarse (ax, ay) (bx, by) (cx, cy) =
        let u = (bx -. ax) *. (cy -. ay) and v = (by -. ay) *. (cx -. ax) in
        let d = u -. v in
        let eps = 1e-6 *. (Float.abs u +. Float.abs v +. 1.0) in
        if d > eps then 1 else if d < -.eps then -1 else 0
      in
      let sym_diff =
        List.filter (fun i -> not (List.mem i expected)) got
        @ List.filter (fun i -> not (List.mem i got)) expected
      in
      List.for_all
        (fun i ->
          let s = segs.(i) in
          let a = (s.Segment.x1, s.Segment.y1) and b = (s.Segment.x2, s.Segment.y2) in
          let d1 = coarse a b p1 and d2 = coarse a b p2 in
          let d3 = coarse p1 p2 a and d4 = coarse p1 p2 b in
          d1 = 0 || d2 = 0 || d3 = 0 || d4 = 0)
        sym_diff)

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_sloped_facade ])

(* ---------------- persistence: snapshot + WAL ---------------- *)

let all_backend_tags = List.map snd Db.all_backends

let pers_workload seed n =
  let rng = Rng.create seed in
  W.roads rng ~n ~span:100.0

let pers_queries segs =
  let xs =
    if Array.length segs = 0 then [ 50.0 ]
    else
      [
        segs.(0).Segment.x1;
        segs.(Array.length segs / 2).Segment.x2;
        25.0;
        50.0;
        75.0;
      ]
  in
  List.concat_map
    (fun x ->
      [ Vquery.line ~x; Vquery.segment ~x ~ylo:10.0 ~yhi:60.0; Vquery.ray_up ~x ~ylo:40.0 ])
    xs

let answers db queries = List.map (fun q -> List.sort compare (Db.query_ids db q)) queries

let with_tmp ext f =
  let path = Filename.temp_file "segdb_pers" ext in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Acceptance: save then open answers identical workloads, per backend,
   on BOTH open paths — the marshaled-image restore and the rebuild. *)
let test_snapshot_roundtrip () =
  let segs = pers_workload 42 200 in
  let queries = pers_queries segs in
  List.iter
    (fun backend ->
      with_tmp ".snap" (fun path ->
          let db = Db.create ~backend ~block:16 segs in
          let expect = answers db queries in
          Db.save db path;
          let restored, mode = Db.open_db_mode path in
          Alcotest.(check bool)
            (Db.backend_name db ^ ": image restored")
            true (mode = Db.Restored_image);
          Alcotest.(check bool)
            (Db.backend_name db ^ ": same backend")
            true
            (Db.backend restored = backend);
          Alcotest.(check int)
            (Db.backend_name db ^ ": size")
            (Db.size db) (Db.size restored);
          if answers restored queries <> expect then
            Alcotest.failf "%s: restored image answers differ" (Db.backend_name db);
          let rebuilt, mode = Db.open_db_mode ~use_image:false path in
          Alcotest.(check bool)
            (Db.backend_name db ^ ": rebuild forced")
            true (mode = Db.Rebuilt);
          if answers rebuilt queries <> expect then
            Alcotest.failf "%s: rebuilt answers differ" (Db.backend_name db)))
    all_backend_tags

let test_snapshot_no_image () =
  let segs = pers_workload 7 120 in
  with_tmp ".snap" (fun path ->
      let db = Db.create ~backend:`Solution2 segs in
      Db.save ~image:false db path;
      let restored, mode = Db.open_db_mode path in
      Alcotest.(check bool) "no image -> rebuilt" true (mode = Db.Rebuilt);
      let queries = pers_queries segs in
      Alcotest.(check bool) "answers equal" true (answers restored queries = answers db queries))

let test_snapshot_corrupt () =
  with_tmp ".snap" (fun path ->
      let db = Db.create ~backend:`Naive (pers_workload 3 30) in
      Db.save db path;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* flip a byte in the middle: some CRC must catch it *)
      let b = Bytes.of_string data in
      let i = Bytes.length b / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x5A));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      match Db.open_db path with
      | exception Segdb_core.Snapshot.Corrupt_snapshot _ -> ()
      | _ -> Alcotest.fail "bit flip must be detected")

(* Crash recovery: acknowledged inserts/deletes survive a process that
   never saved. The "crash" drops the db without checkpointing; reopen
   replays the WAL into a fresh index. *)
let test_wal_recovery () =
  let base = pers_workload 11 100 in
  let extra = pers_workload 12 160 in
  with_tmp ".wal" (fun wal_path ->
      Sys.remove wal_path;
      List.iter
        (fun backend ->
          if Sys.file_exists wal_path then Sys.remove wal_path;
          let db = Db.create ~backend ~block:16 base in
          let replayed = Db.attach_wal ~sync:false db wal_path in
          Alcotest.(check int) "fresh wal" 0 replayed;
          (* new ids, disjoint from base *)
          Array.iteri
            (fun i (s : Segment.t) ->
              if i >= 100 then
                Db.insert db
                  (Segment.make ~id:(1000 + s.Segment.id)
                     (s.Segment.x1, s.Segment.y1)
                     (s.Segment.x2, s.Segment.y2)))
            extra;
          let doomed = base.(0) in
          ignore (Db.delete db doomed);
          let queries = pers_queries base in
          let expect = answers db queries in
          let n = Db.size db in
          Db.detach_wal db;
          (* crash: db dropped, only base segments + the log survive *)
          let db2 = Db.create ~backend ~block:16 base in
          let replayed = Db.attach_wal ~sync:false db2 wal_path in
          Alcotest.(check int)
            (Db.backend_name db ^ ": all ops replayed")
            61 replayed;
          Alcotest.(check int) (Db.backend_name db ^ ": size recovered") n (Db.size db2);
          if answers db2 queries <> expect then
            Alcotest.failf "%s: recovered answers differ" (Db.backend_name db);
          Db.detach_wal db2)
        all_backend_tags)

(* The acceptance criterion, end to end: truncate the WAL file at every
   byte offset; reopening recovers exactly the acknowledged prefix. *)
let test_wal_truncation_sweep () =
  let base = pers_workload 21 40 in
  with_tmp ".wal" (fun wal_path ->
      Sys.remove wal_path;
      let db = Db.create ~backend:`Solution2 ~block:16 base in
      ignore (Db.attach_wal ~sync:false db wal_path);
      let ops = 12 in
      for i = 0 to ops - 1 do
        Db.insert db (Segment.make ~id:(2000 + i) (float_of_int i, 200.0) (float_of_int i +. 5.0, 201.0))
      done;
      Db.detach_wal db;
      let data =
        let ic = open_in_bin wal_path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let frame = String.length data / ops in
      Alcotest.(check int) "op frames are fixed-size" 49 frame;
      with_tmp ".wal" (fun torn ->
          for len = 0 to String.length data do
            let oc = open_out_bin torn in
            output_string oc (String.sub data 0 len);
            close_out oc;
            let db2 = Db.create ~backend:`Solution2 ~block:16 base in
            let replayed = Db.attach_wal ~sync:false db2 torn in
            let expect = len / frame in
            if replayed <> expect then
              Alcotest.failf "truncation at %d: replayed %d, expected %d" len replayed expect;
            if Db.size db2 <> Array.length base + expect then
              Alcotest.failf "truncation at %d: size %d, expected %d" len (Db.size db2)
                (Array.length base + expect);
            Db.detach_wal db2
          done))

let test_checkpoint () =
  let base = pers_workload 31 80 in
  with_tmp ".snap" (fun snap_path ->
      with_tmp ".wal" (fun wal_path ->
          Sys.remove wal_path;
          let db = Db.create ~backend:`Solution1 base in
          ignore (Db.attach_wal ~sync:false db wal_path);
          for i = 0 to 9 do
            Db.insert db (Segment.make ~id:(3000 + i) (float_of_int i, 150.0) (float_of_int i +. 3.0, 151.0))
          done;
          Db.checkpoint db snap_path;
          Alcotest.(check int)
            "wal empty after checkpoint" 0
            (Unix.stat wal_path).Unix.st_size;
          (* ops after the checkpoint land in the (now empty) log *)
          Db.insert db (Segment.make ~id:4000 (0.0, 160.0) (5.0, 161.0));
          let queries = pers_queries base in
          let expect = answers db queries in
          let n = Db.size db in
          Db.detach_wal db;
          (* recover: snapshot + post-checkpoint log *)
          let db2 = Db.open_db snap_path in
          let replayed = Db.attach_wal ~sync:false db2 wal_path in
          Alcotest.(check int) "one post-checkpoint record" 1 replayed;
          Alcotest.(check int) "size recovered" n (Db.size db2);
          Alcotest.(check bool) "answers equal" true (answers db2 queries = expect);
          Db.detach_wal db2))

(* Replay is idempotent: attaching the same log twice (snapshot already
   contains the ops) must not duplicate or abort. *)
let test_wal_replay_idempotent () =
  let base = pers_workload 41 50 in
  with_tmp ".snap" (fun snap_path ->
      with_tmp ".wal" (fun wal_path ->
          Sys.remove wal_path;
          let db = Db.create ~backend:`Solution2 base in
          ignore (Db.attach_wal ~sync:false db wal_path);
          for i = 0 to 4 do
            Db.insert db (Segment.make ~id:(5000 + i) (float_of_int i, 170.0) (float_of_int i +. 2.0, 171.0))
          done;
          (* save WITHOUT resetting the log: the snapshot already holds
             the logged inserts *)
          Db.save db snap_path;
          let n = Db.size db in
          Db.detach_wal db;
          let db2 = Db.open_db snap_path in
          let replayed = Db.attach_wal ~sync:false db2 wal_path in
          Alcotest.(check int) "records replayed" 5 replayed;
          Alcotest.(check int) "no duplicates" n (Db.size db2);
          Db.detach_wal db2))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "snapshot roundtrip, all backends" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "snapshot without image rebuilds" `Quick test_snapshot_no_image;
        Alcotest.test_case "snapshot rejects bit flips" `Quick test_snapshot_corrupt;
        Alcotest.test_case "wal crash recovery, all backends" `Quick test_wal_recovery;
        Alcotest.test_case "wal truncation sweep (segdb)" `Quick test_wal_truncation_sweep;
        Alcotest.test_case "checkpoint truncates the log" `Quick test_checkpoint;
        Alcotest.test_case "wal replay idempotent over snapshot" `Quick test_wal_replay_idempotent;
      ] )

(* Fresh-process round-trip: a snapshot written here is reopened by
   segdb_cli (a different executable, so the rebuild path) which must
   print identical ids and query answers. This is the acceptance
   criterion's "fresh process". *)

let cli_exe =
  (* the (deps %{exe:...}) stanza puts the binary next to the test cwd *)
  List.find_opt Sys.file_exists
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/segdb_cli.exe";
      "../bin/segdb_cli.exe";
    ]

let run_lines cmd =
  let ic = Unix.open_process_in cmd in
  let rec go acc = match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> Alcotest.failf "command failed: %s" cmd

let test_fresh_process_roundtrip () =
  match cli_exe with
  | None -> Alcotest.skip ()
  | Some exe ->
      let segs = pers_workload 55 150 in
      List.iter
        (fun backend ->
          with_tmp ".snap" (fun snap ->
              let db = Db.create ~backend ~block:16 segs in
              Db.save db snap;
              let expect_ids =
                Array.to_list (Db.segments db)
                |> List.map (fun (s : Segment.t) -> string_of_int s.Segment.id)
              in
              let got_ids =
                run_lines (Filename.quote_command exe [ "open"; snap; "--ids" ])
                |> List.filter (fun l -> not (String.length l > 0 && l.[0] = 'o'))
              in
              Alcotest.(check (list string))
                (Db.backend_name db ^ ": ids across processes")
                expect_ids got_ids;
              let x = segs.(75).Segment.x1 in
              let expect_q =
                Db.query_ids db (Vquery.segment ~x ~ylo:10.0 ~yhi:80.0)
                |> List.sort compare
                |> List.map string_of_int
              in
              let got_q =
                run_lines
                  (Filename.quote_command exe
                     [ "open"; snap; "-x"; Printf.sprintf "%.17g" x; "--ylo"; "10"; "--yhi"; "80" ])
                |> List.filter (fun l ->
                       String.length l > 0 && (l.[0] >= '0' && l.[0] <= '9'))
              in
              Alcotest.(check (list string))
                (Db.backend_name db ^ ": query answers across processes")
                expect_q got_q))
        [ `Naive; `Solution2 ]

(* ---------------- robustness: degraded reads, scrub, repair ---------------- *)

module Snapshot = Segdb_core.Snapshot

let with_disarm f = Fun.protect ~finally:Segdb_io.Failpoint.disarm f

(* [scan_wal] is the non-mutating read the repair path depends on: it
   must see exactly the operations that went through the logged db. *)
let test_scan_wal () =
  with_tmp ".wal" (fun wal ->
      Sys.remove wal;
      let segs = pers_workload 31 40 in
      let db = Db.create ~backend:`Naive ~block:16 (Array.sub segs 0 30) in
      ignore (Db.attach_wal ~sync:false db wal);
      Db.insert db segs.(30);
      Db.insert db segs.(31);
      ignore (Db.delete db segs.(5));
      Db.detach_wal db;
      let ops, skipped = Db.scan_wal wal in
      Alcotest.(check int) "no skipped records" 0 skipped;
      let describe = function
        | Db.Op_insert s -> Printf.sprintf "+%d" s.Segment.id
        | Db.Op_delete s -> Printf.sprintf "-%d" s.Segment.id
      in
      Alcotest.(check (list string))
        "exact op sequence"
        [
          Printf.sprintf "+%d" segs.(30).Segment.id;
          Printf.sprintf "+%d" segs.(31).Segment.id;
          Printf.sprintf "-%d" segs.(5).Segment.id;
        ]
        (List.map describe ops);
      (* the scan did not consume the log *)
      let ops2, _ = Db.scan_wal wal in
      Alcotest.(check int) "scan is repeatable" (List.length ops) (List.length ops2))

(* [query_safe] under an injected query fault: the caller gets what was
   collected, a [complete = false] flag, and the fault string — and the
   same call heals as soon as the fault clears. *)
let test_query_safe_degraded () =
  let segs = pers_workload 77 80 in
  let db = Db.create ~backend:`Solution2 ~block:16 segs in
  let q = Vquery.segment ~x:50.0 ~ylo:0.0 ~yhi:100.0 in
  let healthy = Db.query_safe db q in
  Alcotest.(check bool) "complete when healthy" true healthy.Db.Degraded.complete;
  Alcotest.(check (list int))
    "value matches the raw query" (Db.query_ids db q) healthy.Db.Degraded.value;
  with_disarm (fun () ->
      Segdb_io.Failpoint.arm
        [ ("segdb.query", Segdb_io.Failpoint.plan Segdb_io.Failpoint.Eio) ];
      let d = Db.query_safe db q in
      Alcotest.(check bool) "incomplete under fault" false d.Db.Degraded.complete;
      Alcotest.(check bool) "fault recorded" true (d.Db.Degraded.faults <> []));
  let again = Db.query_safe db q in
  Alcotest.(check bool) "healed after disarm" true again.Db.Degraded.complete

(* And the raw query path refuses loudly rather than degrading: the
   typed channel is opt-in. *)
let test_raw_query_raises () =
  let segs = pers_workload 78 30 in
  let db = Db.create ~backend:`Naive segs in
  with_disarm (fun () ->
      Segdb_io.Failpoint.arm
        [ ("segdb.query", Segdb_io.Failpoint.plan Segdb_io.Failpoint.Eio) ];
      match Db.query_ids db (Vquery.line ~x:50.0) with
      | _ -> Alcotest.fail "raw query must raise under fault"
      | exception Unix.Unix_error (Unix.EIO, _, _) -> ())

(* A reader's query is the same query: it fires the same fault site. *)
let test_reader_query_raises () =
  let segs = pers_workload 79 30 in
  let db = Db.create ~backend:`Solution2 ~block:8 segs in
  let r = Db.reader db in
  with_disarm (fun () ->
      Segdb_io.Failpoint.arm
        [ ("segdb.query", Segdb_io.Failpoint.plan Segdb_io.Failpoint.Eio) ];
      match Db.query_ids_r db r (Vquery.line ~x:50.0) with
      | _ -> Alcotest.fail "a reader's query must raise under fault"
      | exception Unix.Unix_error (Unix.EIO, _, _) -> ())

(* The scrub-side invariant battery on healthy databases: every backend,
   including the random-query cross-check against a fresh naive build. *)
let test_validate_clean () =
  let segs = pers_workload 41 120 in
  List.iter
    (fun backend ->
      let db = Db.create ~backend ~block:16 segs in
      Alcotest.(check (list string))
        (Db.backend_name db ^ " validates clean")
        []
        (Db.validate ~queries:12 ~seed:9 db))
    all_backend_tags

let test_snapshot_salvage () =
  let segs = pers_workload 91 60 in
  with_tmp ".snap" (fun snap ->
      let db = Db.create ~backend:`Solution1 ~block:16 segs in
      Db.save db snap;
      (match Snapshot.salvage ~path:snap with
      | [], Some c ->
          Alcotest.(check int) "all segments salvaged" 60 (Array.length c.Snapshot.segments);
          Alcotest.(check string) "backend survives" "solution1" c.Snapshot.header.Snapshot.backend
      | fs, _ -> Alcotest.failf "clean snapshot has findings: %s" (String.concat "; " fs));
      (* flip one byte in the middle: salvage must degrade, never lie *)
      let ic = open_in_bin snap in
      let data =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let b = Bytes.of_string data in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x20));
      let oc = open_out_bin snap in
      output_bytes oc b;
      close_out oc;
      let findings, contents = Snapshot.salvage ~path:snap in
      Alcotest.(check bool)
        "damage is visible (finding or destroyed section)" true
        (findings <> [] || contents = None);
      (* a section either salvages intact or is dropped — never altered *)
      match contents with
      | None -> ()
      | Some c ->
          Alcotest.(check bool)
            "surviving segments are bit-identical" true
            (c.Snapshot.segments = Array.of_list (Array.to_list segs)
            || findings <> []))

(* The repair pipeline's building blocks, end to end in-process:
   salvage the snapshot, rebuild, replay the scanned WAL, validate. *)
let test_repair_roundtrip () =
  let segs = pers_workload 17 80 in
  with_tmp ".snap" (fun snap ->
      with_tmp ".wal" (fun wal ->
          Sys.remove wal;
          let db = Db.create ~backend:`Solution2 ~block:16 (Array.sub segs 0 70) in
          Db.save db snap;
          ignore (Db.attach_wal ~sync:false db wal);
          for i = 70 to 79 do
            Db.insert db segs.(i)
          done;
          ignore (Db.delete db segs.(3));
          let expect = answers db (pers_queries segs) in
          Db.detach_wal db;
          (* the "repair": salvage + rebuild + replay, touching neither input *)
          let findings, contents = Snapshot.salvage ~path:snap in
          Alcotest.(check (list string)) "salvage clean" [] findings;
          let c = match contents with Some c -> c | None -> Alcotest.fail "no contents" in
          let db2 =
            Db.create ~backend:`Solution2 ~block:c.Snapshot.header.Snapshot.block
              c.Snapshot.segments
          in
          let ops, skipped = Db.scan_wal wal in
          Alcotest.(check int) "log fully decodable" 0 skipped;
          Db.apply_wal_ops db2 ops;
          Alcotest.(check (list string)) "repaired db validates" []
            (Db.validate ~queries:8 db2);
          List.iteri
            (fun i (got, want) ->
              if got <> want then Alcotest.failf "query %d diverged after repair" i)
            (List.combine (answers db2 (pers_queries segs)) expect)))

(* Same pipeline through the real executable: scrub a damaged snapshot
   (non-zero exit, findings on stdout), repair it, scrub the repaired
   copy clean. *)
let test_cli_scrub_repair () =
  match cli_exe with
  | None -> Alcotest.skip ()
  | Some exe ->
      let segs = pers_workload 23 50 in
      with_tmp ".snap" (fun snap ->
          with_tmp ".snap2" (fun out ->
              let db = Db.create ~backend:`Solution2 ~block:16 segs in
              Db.save db snap;
              (* clean scrub exits 0 *)
              let rc = Sys.command (Filename.quote_command exe [ "scrub"; snap ] ^ " > /dev/null") in
              Alcotest.(check int) "clean scrub exit code" 0 rc;
              (* damage the image section's CRC region: past the header *)
              let fd = Unix.openfile snap [ Unix.O_RDWR ] 0 in
              let size = (Unix.fstat fd).Unix.st_size in
              ignore (Unix.lseek fd (size - 8) Unix.SEEK_SET);
              ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1);
              Unix.close fd;
              let rc = Sys.command (Filename.quote_command exe [ "scrub"; snap ] ^ " > /dev/null") in
              Alcotest.(check bool) "damaged scrub exits non-zero" true (rc <> 0);
              let rc =
                Sys.command
                  (Filename.quote_command exe [ "repair"; snap; "-o"; out ] ^ " > /dev/null")
              in
              Alcotest.(check int) "repair succeeds" 0 rc;
              let rc = Sys.command (Filename.quote_command exe [ "scrub"; out ] ^ " > /dev/null") in
              Alcotest.(check int) "repaired snapshot scrubs clean" 0 rc;
              let db2 = Db.open_db out in
              Alcotest.(check int) "repaired contents" (Array.length segs) (Db.size db2)))

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "fresh-process snapshot roundtrip" `Quick test_fresh_process_roundtrip;
        Alcotest.test_case "scan_wal sees the op sequence" `Quick test_scan_wal;
        Alcotest.test_case "query_safe degrades and heals" `Quick test_query_safe_degraded;
        Alcotest.test_case "raw query raises under fault" `Quick test_raw_query_raises;
        Alcotest.test_case "reader query raises under fault" `Quick test_reader_query_raises;
        Alcotest.test_case "validate clean on every backend" `Quick test_validate_clean;
        Alcotest.test_case "snapshot salvage" `Quick test_snapshot_salvage;
        Alcotest.test_case "repair pipeline roundtrip" `Quick test_repair_roundtrip;
        Alcotest.test_case "cli scrub + repair" `Quick test_cli_scrub_repair;
      ] )
