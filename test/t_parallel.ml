(* Read-path/write-path split: queries are pure, readers leave no
   trace on shared state, mutation under a reader is rejected, and a
   batch fanned out by [Exec.run] returns exactly the serial answers on
   every backend at every domain count. *)

open Segdb_io
open Segdb_geom
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng
module Vs = Segdb_core.Vs_index
module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec

let qtest = QCheck_alcotest.to_alcotest

let backends : (string * (module Vs.S)) list =
  [
    ("naive", (module Segdb_core.Naive));
    ("rtree", (module Segdb_core.Rtree_index));
    ("solution1", (module Segdb_core.Solution1));
    ("solution2", (module Segdb_core.Solution2));
  ]

let families =
  [
    ("roads", fun rng n -> W.roads rng ~n ~span:100.0);
    ("grid", fun rng n -> W.grid_city rng ~n ~span:100 ~max_len:25);
    ("temporal", fun rng n -> W.temporal rng ~n ~keys:12 ~horizon:200);
    ("fans", fun rng n -> W.fans rng ~n ~centers:4 ~span:100);
  ]

let random_query rng segs =
  let x =
    if Rng.bool rng || Array.length segs = 0 then Rng.float rng 120.0 -. 10.0
    else
      let s = segs.(Rng.int rng (Array.length segs)) in
      if Rng.bool rng then s.Segment.x1 else s.Segment.x2
  in
  match Rng.int rng 4 with
  | 0 -> Vquery.line ~x
  | 1 -> Vquery.ray_up ~x ~ylo:(Rng.float rng 100.0)
  | 2 -> Vquery.ray_down ~x ~yhi:(Rng.float rng 100.0)
  | _ ->
      let y = Rng.float rng 100.0 in
      Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 40.0)

let scenario =
  QCheck.make
    ~print:(fun (seed, n, block, fam) -> Printf.sprintf "seed=%d n=%d B=%d fam=%s" seed n block fam)
    QCheck.Gen.(
      let* seed = 0 -- 100_000 in
      let* n = 0 -- 120 in
      let* block = oneofl [ 4; 8; 16 ] in
      let* fam = oneofl (List.map fst families) in
      return (seed, n, block, fam))

(* Random interleavings of the whole read API — plain and through a
   reader — between two [query_ids] calls never change the answer; and
   under a reader the shared counter does not move at all while the
   reader's own counter shows no writes and no allocs. *)
let prop_queries_leave_no_trace =
  QCheck.Test.make ~name:"queries leave no trace" ~count:60 scenario
    (fun (seed, n, block, fam) ->
      let rng = Rng.create seed in
      let segs = (List.assoc fam families) (Rng.split rng) n in
      let queries = Array.init 12 (fun _ -> random_query rng segs) in
      List.for_all
        (fun (_name, (module M : Vs.S)) ->
          let cfg = Vs.config ~pool_blocks:8 ~block () in
          let t = M.build cfg segs in
          let baseline = Array.map (fun q -> Vs.query_ids (module M) t q) queries in
          let interleave use_reader =
            Array.iter
              (fun q ->
                match Rng.int rng 3 with
                | 0 -> ignore (Vs.query_ids (module M) t q)
                | 1 ->
                    let k = ref 0 in
                    M.query t q ~f:(fun _ -> incr k)
                | _ ->
                    if use_reader then
                      let r = Vs.reader cfg in
                      ignore (Vs.query_ids_r (module M) r t q)
                    else M.query t q ~f:ignore)
              queries
          in
          (* plain interleaving: answers stable *)
          interleave false;
          let after_plain = Array.map (fun q -> Vs.query_ids (module M) t q) queries in
          (* reader interleaving: answers stable and shared state frozen *)
          let r = Vs.reader cfg in
          let before = Io_stats.snapshot cfg.Vs.stats in
          let under_reader =
            Vs.with_reader r (fun () ->
                interleave true;
                Array.map (fun q -> Vs.query_ids (module M) t q) queries)
          in
          let shared_delta = Io_stats.diff before (Io_stats.snapshot cfg.Vs.stats) in
          let rio = Io_stats.snapshot (Vs.reader_io r) in
          after_plain = baseline && under_reader = baseline
          && shared_delta = { Io_stats.reads = 0; writes = 0; allocs = 0 }
          && rio.Io_stats.writes = 0 && rio.Io_stats.allocs = 0)
        backends)

(* ---------------- Exec.run vs serial ---------------- *)

(* each batch on a fresh three-worker pool, so every domain count
   tested here can fan out for real *)
let run_batch db qs ~domains =
  let pool = Exec.create ~workers:3 () in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) @@ fun () ->
  match Exec.run pool db (Exec.request qs) ~domains with
  | Exec.Ok out, _ -> out
  | o, _ -> Alcotest.failf "batch not answered: %a" Exec.pp_outcome o

let test_parallel_matches_serial () =
  let rng = Rng.create 7 in
  let segs = W.roads (Rng.split rng) ~n:300 ~span:100.0 in
  let queries = Array.init 64 (fun _ -> random_query rng segs) in
  List.iter
    (fun (name, backend) ->
      let db = Db.create ~backend ~block:8 ~pool_blocks:16 segs in
      let serial = Array.map (Db.query_ids db) queries in
      List.iter
        (fun domains ->
          let par = run_batch db queries ~domains in
          Array.iteri
            (fun i got ->
              Alcotest.(check (list int))
                (Printf.sprintf "%s: query %d, %d domains" name i domains)
                serial.(i) got)
            par)
        [ 1; 2; 4 ])
    Db.all_backends

let test_parallel_after_mutation () =
  let rng = Rng.create 11 in
  let pool = W.roads (Rng.split rng) ~n:400 ~span:100.0 in
  let initial = Array.sub pool 0 200 in
  let db = Db.create ~backend:`Solution2 ~block:8 ~pool_blocks:16 initial in
  for i = 200 to 299 do
    Db.insert db pool.(i)
  done;
  for i = 0 to 49 do
    ignore (Db.delete db initial.(i))
  done;
  let queries = Array.init 64 (fun _ -> random_query rng pool) in
  let serial = Array.map (Db.query_ids db) queries in
  let par = run_batch db queries ~domains:4 in
  Array.iteri
    (fun i got -> Alcotest.(check (list int)) (Printf.sprintf "query %d" i) serial.(i) got)
    par

(* ---------------- readers across writes ---------------- *)

(* A reader outlives writes: a block cached before its store's last
   write or free is refetched. After every random insert or delete, one
   long-lived reader and a submit on a one-worker pool (whose worker
   keeps its cached reader across requests) answer every query exactly
   as [Db.query_ids] does. *)
let prop_reader_survives_writes =
  QCheck.Test.make ~name:"a long-lived reader survives writes" ~count:30 scenario
    (fun (seed, n, block, fam) ->
      let rng = Rng.create seed in
      let segs = (List.assoc fam families) (Rng.split rng) (n + 16) in
      let n0 = Array.length segs / 2 in
      let queries = Array.init 8 (fun _ -> random_query rng segs) in
      let pool = Exec.create ~workers:1 () in
      Fun.protect ~finally:(fun () -> Exec.shutdown pool) @@ fun () ->
      List.for_all
        (fun backend ->
          let db = Db.create ~backend ~block ~pool_blocks:8 (Array.sub segs 0 n0) in
          let r = Db.reader db in
          let agree () =
            let serial = Array.map (Db.query_ids db) queries in
            Array.map (Db.query_ids_r db r) queries = serial
            && Exec.await (Exec.submit pool db (Exec.request queries)) = Exec.Ok serial
          in
          let live = ref (Array.to_list (Array.sub segs 0 n0)) in
          let spare = ref (Array.to_list (Array.sub segs n0 (Array.length segs - n0))) in
          let write () =
            match !spare with
            | s :: rest when Rng.bool rng || !live = [] ->
                spare := rest;
                live := s :: !live;
                Db.insert db s
            | _ when !live <> [] ->
                let s = List.nth !live (Rng.int rng (List.length !live)) in
                live := List.filter (fun (c : Segment.t) -> c.id <> s.Segment.id) !live;
                ignore (Db.delete db s)
            | _ -> ()
          in
          let rec steps k = k = 0 || (write (); agree () && steps (k - 1)) in
          agree () && steps 12)
        [ `Solution2; `Naive ])

(* ---------------- writer guard ---------------- *)

module Store = Block_store.Make (struct
  type t = int
end)

let test_mutation_under_reader_raises () =
  let pool = Block_store.Pool.create ~capacity:4 in
  let io = Io_stats.create () in
  let s = Store.create ~pool ~stats:io () in
  let a = Store.alloc s 10 in
  let r = Read_context.create () in
  Read_context.with_reader r (fun () ->
      Alcotest.(check int) "read allowed" 10 (Store.read s a);
      let expect op f =
        match f () with
        | () -> Alcotest.failf "%s under reader did not raise" op
        | exception Invalid_argument _ -> ()
      in
      expect "write" (fun () -> Store.write s a 11);
      expect "alloc" (fun () -> ignore (Store.alloc s 12));
      expect "free" (fun () -> Store.free s a);
      expect "flush" (fun () -> Store.flush s));
  (* the guard lifts with the reader *)
  Store.write s a 11;
  Alcotest.(check int) "write after reader" 11 (Store.read s a)

let test_db_mutation_under_reader_raises () =
  let segs = W.roads (Rng.create 3) ~n:100 ~span:100.0 in
  let db = Db.create ~backend:`Solution2 ~block:8 segs in
  let r = Db.reader db in
  match Db.with_reader r (fun () -> Db.insert db (Segment.make ~id:9999 (0.5, 0.5) (1.5, 1.5))) with
  | () -> Alcotest.fail "insert under reader did not raise"
  | exception Invalid_argument _ -> ()

(* ---------------- reader accounting ---------------- *)

let test_reader_accounting () =
  let segs = W.roads (Rng.create 5) ~n:600 ~span:100.0 in
  let cfg = Vs.config ~pool_blocks:4 ~block:8 () in
  let t = Segdb_core.Solution2.build cfg segs in
  let q = Vquery.line ~x:50.0 in
  let shared_before = Io_stats.snapshot cfg.Vs.stats in
  let r1 = Vs.reader ~cache_blocks:1024 cfg in
  let ids = Vs.query_ids_r (module Segdb_core.Solution2) r1 t q in
  Alcotest.(check bool) "reader query leaves the shared counter alone" true
    (Io_stats.diff shared_before (Io_stats.snapshot cfg.Vs.stats)
    = { Io_stats.reads = 0; writes = 0; allocs = 0 });
  let first = Io_stats.reads (Vs.reader_io r1) in
  Alcotest.(check bool) "cold reader pays reads" true (first > 0);
  (* a second reader starts cold and pays its own way — before any
     serial query warms the shared pool *)
  let r2 = Vs.reader ~cache_blocks:1024 cfg in
  ignore (Vs.query_ids_r (module Segdb_core.Solution2) r2 t q);
  Alcotest.(check int) "independent reader pays the cold cost" first
    (Io_stats.reads (Vs.reader_io r2));
  ignore (Vs.query_ids_r (module Segdb_core.Solution2) r1 t q);
  let second = Io_stats.reads (Vs.reader_io r1) - first in
  Alcotest.(check bool)
    (Printf.sprintf "warm shard re-reads less (%d then %d)" first second)
    true (second < first);
  Alcotest.(check (list int)) "reader answer" (Vs.query_ids (module Segdb_core.Solution2) t q) ids

let suite =
  ( "parallel",
    [
      qtest prop_queries_leave_no_trace;
      Alcotest.test_case "parallel_query matches serial" `Quick test_parallel_matches_serial;
      Alcotest.test_case "parallel_query after mutation" `Quick test_parallel_after_mutation;
      qtest prop_reader_survives_writes;
      Alcotest.test_case "store mutation under reader raises" `Quick
        test_mutation_under_reader_raises;
      Alcotest.test_case "db mutation under reader raises" `Quick
        test_db_mutation_under_reader_raises;
      Alcotest.test_case "reader accounting" `Quick test_reader_accounting;
    ] )
