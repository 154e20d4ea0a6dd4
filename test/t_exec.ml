(* The execution engine: one persistent pool behind every entry point.
   Parity with the serial answers, deadline propagation (a queued
   request past its budget never executes; a slow batch is cut after
   the immune first query; an expired deadline stops block fetches
   mid-flight), pool persistence across batches, admission control,
   and storage faults degrading both ways in alike. *)

open Segdb_io
open Segdb_geom
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng
module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec

let line_queries n =
  Array.init n (fun i -> Vquery.line ~x:(float_of_int (i * 97 mod 100)))

let random_query rng =
  let x = Rng.float rng 100.0 in
  match Rng.int rng 3 with
  | 0 -> Vquery.line ~x
  | 1 -> Vquery.ray_up ~x ~ylo:(Rng.float rng 100.0)
  | _ ->
      let y = Rng.float rng 100.0 in
      Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 40.0)

(* A database slow enough that one naive query runs for several
   milliseconds — the deterministic lever for deadline tests (same
   sizing as the server deadline test in t_net). *)
let slow_db =
  lazy
    (Db.create ~backend:`Naive ~block:8 ~pool_blocks:8
       (W.roads (Rng.create 42) ~n:100_000 ~span:100.0))

let with_pool ?queue_depth ~workers f =
  let pool = Exec.create ?queue_depth ~workers () in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) (fun () -> f pool)

(* ---------------- parity ---------------- *)

let test_run_matches_serial () =
  let rng = Rng.create 13 in
  let segs = W.roads (Rng.split rng) ~n:300 ~span:100.0 in
  let queries = Array.init 40 (fun _ -> random_query rng) in
  with_pool ~workers:3 (fun pool ->
      List.iter
        (fun (name, backend) ->
          let db = Db.create ~backend ~block:8 ~pool_blocks:16 segs in
          let serial = Array.map (Db.query_ids db) queries in
          List.iter
            (fun domains ->
              match Exec.run pool db (Exec.request queries) ~domains with
              | Exec.Ok out, stats ->
                  Array.iteri
                    (fun i got ->
                      Alcotest.(check (list int))
                        (Printf.sprintf "%s: query %d, %d domains" name i domains)
                        serial.(i) got)
                    out;
                  Alcotest.(check int)
                    (Printf.sprintf "%s: stats rows" name)
                    domains (Array.length stats);
                  Alcotest.(check int)
                    (Printf.sprintf "%s: every query answered once" name)
                    (Array.length queries)
                    (Array.fold_left (fun a s -> a + s.Exec.queries) 0 stats)
              | o, _ ->
                  Alcotest.failf "%s: expected Ok, got %s" name
                    (Format.asprintf "%a" Exec.pp_outcome o))
            [ 1; 2; 4 ])
        Db.all_backends)

(* A one-worker pool lends its worker to [run]: asked for two
   participants, the caller gets one helper, which joins while the
   caller is still inside a slow naive query. *)
let test_run_fans_out_onto_one_worker () =
  let db = Lazy.force slow_db in
  let queries = line_queries 10 in
  with_pool ~workers:1 (fun pool ->
      match Exec.run pool db (Exec.request queries) ~domains:2 with
      | Exec.Ok _, stats ->
          Alcotest.(check bool)
            (Printf.sprintf "participant 1 answered %d queries" stats.(1).Exec.queries)
            true
            (stats.(1).Exec.queries >= 1)
      | o, _ ->
          Alcotest.failf "expected Ok, got %s" (Format.asprintf "%a" Exec.pp_outcome o))

(* ---------------- deadline propagation ---------------- *)

(* A request that expired while queued must answer [Deadline_exceeded]
   with zero completions and, crucially, never reach the query path:
   the [segdb.query] failpoint is armed to crash on any execution, and
   its hit counter must stay at zero. *)
let test_deadline_expired_in_queue () =
  let db = Db.create ~backend:`Naive ~block:8 [| |] in
  Fun.protect ~finally:Failpoint.disarm (fun () ->
      Failpoint.arm
        [ ("segdb.query", Failpoint.plan ~persistent:true Failpoint.Crash) ];
      with_pool ~workers:1 (fun pool ->
          let req = Exec.request ~deadline_ms:1 (line_queries 4) in
          Unix.sleepf 0.01;
          (* the budget started at construction; it is long gone *)
          let tk = Exec.submit pool db req in
          (match Exec.await tk with
          | Exec.Deadline_exceeded { partial; completed } ->
              Alcotest.(check int) "no query completed" 0 completed;
              Alcotest.(check bool) "all slots empty" true
                (Array.for_all (fun l -> l = []) partial)
          | o -> Alcotest.failf "expected Deadline_exceeded, got %s"
                   (Format.asprintf "%a" Exec.pp_outcome o));
          Alcotest.(check int) "query path never entered" 0
            (Failpoint.hits (Failpoint.site "segdb.query"))))

(* The immune first query always answers; the deadline then cuts the
   rest of the batch at the next query boundary. *)
let test_deadline_cuts_slow_batch () =
  let db = Lazy.force slow_db in
  let queries = line_queries 10 in
  with_pool ~workers:1 (fun pool ->
      match Exec.run pool db (Exec.request ~deadline_ms:1 queries) ~domains:1 with
      | Exec.Deadline_exceeded { partial; completed }, stats ->
          Alcotest.(check bool)
            (Printf.sprintf "cut mid-batch (completed %d)" completed)
            true
            (completed >= 1 && completed < Array.length queries);
          Alcotest.(check (list int)) "first answer is the serial answer"
            (Db.query_ids db queries.(0))
            partial.(0);
          Alcotest.(check int) "stats agree with completions" completed
            (Array.fold_left (fun a s -> a + s.Exec.queries) 0 stats)
      | o, _ ->
          Alcotest.failf "expected Deadline_exceeded, got %s"
            (Format.asprintf "%a" Exec.pp_outcome o))

(* ---------------- pool persistence ---------------- *)

let test_pool_reuse_across_batches () =
  let segs = W.roads (Rng.create 17) ~n:200 ~span:100.0 in
  let db = Db.create ~backend:`Solution2 ~block:8 ~pool_blocks:16 segs in
  let queries = line_queries 6 in
  let serial = Array.map (Db.query_ids db) queries in
  with_pool ~workers:1 (fun pool ->
      let answer tk =
        match Exec.await tk with
        | Exec.Ok out ->
            Array.iteri
              (fun i got -> Alcotest.(check (list int))
                  (Printf.sprintf "query %d" i) serial.(i) got)
              out
        | o -> Alcotest.failf "expected Ok, got %s"
                 (Format.asprintf "%a" Exec.pp_outcome o)
      in
      let tk1 = Exec.submit pool db (Exec.request queries) in
      answer tk1;
      let tk2 = Exec.submit pool db (Exec.request queries) in
      answer tk2;
      let d1 = Exec.served_by tk1 and d2 = Exec.served_by tk2 in
      Alcotest.(check bool) "a worker picked each batch up" true (d1 >= 0 && d2 >= 0);
      Alcotest.(check int) "same persistent domain served both" d1 d2;
      Alcotest.(check bool) "and it was not the caller" true
        (d1 <> (Domain.self () :> int)))

(* ---------------- cancellation ---------------- *)

module Store = Block_store.Make (struct
  type t = int
end)

(* The storage layer polls the installed reader's deadline on every
   block fetch: under an expired deadline a scan stops within one poll
   stride instead of walking the remaining blocks — unless the deadline
   is disarmed, as it is for a participant's immune first query. *)
let test_cancel_stops_block_fetches () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let s = Store.create ~pool ~stats:(Io_stats.create ()) () in
  let addrs = Array.init 100 (fun i -> Store.alloc s i) in
  let r = Read_context.create () in
  let scan () =
    Read_context.with_reader r (fun () ->
        match Array.iter (fun a -> ignore (Store.read s a)) addrs with
        | () -> `Ran_to_completion
        | exception Read_context.Expired -> `Stopped)
  in
  let io = Read_context.stats r in
  Read_context.set_deadline r 1;
  Alcotest.(check bool) "scan was stopped" true (scan () = `Stopped);
  let reads = Io_stats.reads io in
  Alcotest.(check bool)
    (Printf.sprintf "reads stopped at %d of %d" reads (Array.length addrs))
    true
    (reads < Read_context.poll_stride);
  Read_context.arm r false;
  Alcotest.(check bool) "with the deadline disabled the scan runs through" true
    (scan () = `Ran_to_completion)

(* A queued request has no cancel button; its deadline is what cuts
   it. One that runs out behind a slow blocker completes with no work
   done, while the request ahead of it still answers. *)
let test_cancel_queued_submit () =
  let db = Lazy.force slow_db in
  with_pool ~workers:1 (fun pool ->
      let blocker = Exec.submit pool db (Exec.request (line_queries 5)) in
      let probe = Exec.submit pool db (Exec.request ~deadline_ms:1 (line_queries 3)) in
      (match Exec.await probe with
      | Exec.Deadline_exceeded { completed; _ } ->
          Alcotest.(check int) "cut before any work" 0 completed
      | o -> Alcotest.failf "expected Deadline_exceeded, got %s"
               (Format.asprintf "%a" Exec.pp_outcome o));
      match Exec.await blocker with
      | Exec.Ok _ -> ()
      | o -> Alcotest.failf "blocker: expected Ok, got %s"
               (Format.asprintf "%a" Exec.pp_outcome o))

(* ---------------- storage faults ---------------- *)

(* A storage fault costs one query its answer, not the request: both
   ways in report it through [Degraded] alike, with the other answers
   intact; a dead device empties every answer. *)
let test_storage_faults_degrade () =
  let segs = W.roads (Rng.create 29) ~n:300 ~span:100.0 in
  let db = Db.create ~backend:`Solution2 ~block:8 ~pool_blocks:16 segs in
  let queries =
    Array.init 4 (fun i -> Vquery.line ~x:(20.0 +. (20.0 *. float_of_int i)))
  in
  (* the serial oracle passes the same fault site: answer before arming *)
  let serial = Array.map (Db.query_ids db) queries in
  Alcotest.(check bool) "the faulted query has an answer to lose" true (serial.(1) <> []);
  let arm plan = Failpoint.arm [ ("segdb.query", plan) ] in
  let one_fault label = function
    | Exec.Degraded (out, faults) ->
        Alcotest.(check int) (label ^ ": one fault") 1 (List.length faults);
        Array.iteri
          (fun i got ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: query %d" label i)
              (if i = 1 then [] else serial.(i))
              got)
          out
    | o -> Alcotest.failf "%s: expected Degraded, got %s" label
             (Format.asprintf "%a" Exec.pp_outcome o)
  in
  Fun.protect ~finally:Failpoint.disarm (fun () ->
      with_pool ~workers:2 (fun pool ->
          arm (Failpoint.plan ~at:2 Failpoint.Eio);
          one_fault "run" (fst (Exec.run pool db (Exec.request queries) ~domains:1));
          arm (Failpoint.plan ~at:2 Failpoint.Eio);
          one_fault "submit" (Exec.await (Exec.submit pool db (Exec.request queries)));
          arm (Failpoint.plan ~persistent:true Failpoint.Eio);
          match Exec.run pool db (Exec.request queries) ~domains:2 with
          | Exec.Degraded (out, faults), _ ->
              Alcotest.(check int) "dead device: a fault per query" 4 (List.length faults);
              Alcotest.(check bool) "dead device: every answer empty" true
                (Array.for_all (fun l -> l = []) out)
          | o, _ -> Alcotest.failf "dead device: expected Degraded, got %s"
                      (Format.asprintf "%a" Exec.pp_outcome o)))

(* ---------------- admission control ---------------- *)

(* A pool with no workers has zero depth whatever it was asked for:
   nothing would ever pick a submit up. *)
let test_zero_depth_refuses_submit () =
  let segs = W.roads (Rng.create 23) ~n:100 ~span:100.0 in
  let db = Db.create ~backend:`Solution2 ~block:8 segs in
  let queries = line_queries 4 in
  List.iter
    (fun (queue_depth, workers) ->
      with_pool ?queue_depth ~workers (fun pool ->
          Alcotest.(check int) "workers spawned" workers (Exec.size pool);
          let tk = Exec.submit pool db (Exec.request queries) in
          (* a refused ticket is complete on return: [await] does not block *)
          Alcotest.(check bool) "refused synchronously" true (Exec.await tk = Exec.Overloaded);
          (* cooperative work bypasses admission: the same pool still runs *)
          match Exec.run pool db (Exec.request queries) ~domains:2 with
          | Exec.Ok out, _ ->
              Array.iteri
                (fun i got -> Alcotest.(check (list int))
                    (Printf.sprintf "query %d" i) (Db.query_ids db queries.(i)) got)
                out
          | o, _ -> Alcotest.failf "run on zero-depth pool: expected Ok, got %s"
                      (Format.asprintf "%a" Exec.pp_outcome o)))
    [ (Some 0, 1); (None, 0) ]

let test_run_validation () =
  let db = Db.create ~backend:`Naive [||] in
  with_pool ~workers:1 (fun pool ->
      Alcotest.check_raises "domains 0"
        (Invalid_argument "Exec.run: domains must be >= 1") (fun () ->
          ignore (Exec.run pool db (Exec.request [||]) ~domains:0)))

let suite =
  ( "exec",
    [
      Alcotest.test_case "run matches serial on every backend" `Quick
        test_run_matches_serial;
      Alcotest.test_case "run fans out onto a one-worker pool" `Quick
        test_run_fans_out_onto_one_worker;
      Alcotest.test_case "expired in the queue: refused unexecuted" `Quick
        test_deadline_expired_in_queue;
      Alcotest.test_case "deadline cuts a slow batch after the first answer" `Quick
        test_deadline_cuts_slow_batch;
      Alcotest.test_case "one persistent domain serves successive batches" `Quick
        test_pool_reuse_across_batches;
      Alcotest.test_case "cancellation stops block fetches" `Quick
        test_cancel_stops_block_fetches;
      Alcotest.test_case "cancelling a queued request" `Quick test_cancel_queued_submit;
      Alcotest.test_case "storage faults degrade run and submit alike" `Quick
        test_storage_faults_degrade;
      Alcotest.test_case "zero-depth queue refuses submits, run bypasses" `Quick
        test_zero_depth_refuses_submit;
      Alcotest.test_case "run validation" `Quick test_run_validation;
    ] )
