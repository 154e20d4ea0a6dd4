(* Benchmark harness.

   Two sections:
   1. The I/O experiment tables E1-E10 + E12 (EXPERIMENTS.md): the
      paper's complexity claims measured in simulated block transfers.
   2. E11 — a Bechamel wall-clock suite: build and query throughput of
      every backend, confirming the simulated-I/O ordering carries over
      to real time.

   [dune exec bench/main.exe] runs everything at full scale; pass
   [--quick] (or set SEGDB_BENCH_QUICK) for a smoke run. *)

open Bechamel
module W = Segdb_workload.Workload
module Db = Segdb_core.Segdb
module Rng = Segdb_util.Rng
module Harness = Segdb_experiments.Harness
module Registry = Segdb_experiments.Registry

let quick =
  Array.exists (fun a -> a = "--quick") Sys.argv || Sys.getenv_opt "SEGDB_BENCH_QUICK" <> None

(* ---------------- machine-readable output ---------------- *)

(* Every measurement also lands in BENCH_PR10.json so runs can be
   diffed without scraping the ASCII tables. *)

type json_row = {
  backend : string;
  op : string;
  ns_per_op : float option;
  blocks_per_op : float option;
  queries_per_sec : float option;
  domains : int option;
  p50_ns : float option;
  p90_ns : float option;
  p99_ns : float option;
}

let row backend op =
  {
    backend;
    op;
    ns_per_op = None;
    blocks_per_op = None;
    queries_per_sec = None;
    domains = None;
    p50_ns = None;
    p90_ns = None;
    p99_ns = None;
  }

let json_rows : json_row list ref = ref []
let add_json r = json_rows := r :: !json_rows

let write_json path =
  let oc = open_out path in
  let float_field name = function
    | Some v when not (Float.is_nan v) -> Printf.sprintf "\"%s\": %.6g" name v
    | _ -> Printf.sprintf "\"%s\": null" name
  in
  let int_field name = function
    | Some v -> Printf.sprintf "\"%s\": %d" name v
    | None -> Printf.sprintf "\"%s\": null" name
  in
  Printf.fprintf oc "{\n  \"mode\": %S,\n  \"cpus\": %d,\n  \"rows\": [\n"
    (if quick then "quick" else "full")
    (Domain.recommended_domain_count ());
  let rows = List.rev !json_rows in
  List.iteri
    (fun i r ->
      Printf.fprintf oc "    {\"backend\": %S, \"op\": %S, %s, %s, %s, %s, %s, %s, %s}%s\n"
        r.backend r.op
        (float_field "ns_per_op" r.ns_per_op)
        (float_field "blocks_per_op" r.blocks_per_op)
        (float_field "queries_per_sec" r.queries_per_sec)
        (int_field "domains" r.domains)
        (float_field "p50_ns" r.p50_ns)
        (float_field "p90_ns" r.p90_ns)
        (float_field "p99_ns" r.p99_ns)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s (%d rows)\n" path (List.length rows)

(* ---------------- E11: wall clock ---------------- *)

let wall_clock_tests () =
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let queries = W.segment_queries (Rng.create 43) ~n:64 ~span ~selectivity:0.02 in
  let qi = ref 0 in
  let next_query () =
    let q = queries.(!qi land 63) in
    incr qi;
    q
  in
  let query_test name backend =
    let db = Db.create ~backend ~block:64 ~pool_blocks:64 segs in
    Test.make ~name:("query/" ^ name)
      (Staged.stage (fun () -> ignore (Db.count db (next_query ()))))
  in
  let build_test name backend =
    Test.make ~name:("build/" ^ name)
      (Staged.stage (fun () -> ignore (Db.create ~backend ~block:64 ~pool_blocks:64 segs)))
  in
  let insert_test name backend =
    let db = Db.create ~backend ~block:64 ~pool_blocks:64 segs in
    let fresh = W.uniform (Rng.create 44) ~n:(n / 4) ~span in
    let i = ref 0 in
    Test.make ~name:("insert/" ^ name)
      (Staged.stage (fun () ->
           (* fresh ids so the semi-dynamic path is exercised; wrap by
              rebuilding the db when the pool of new segments runs out *)
           if !i >= Array.length fresh then i := 0;
           let s = fresh.(!i) in
           incr i;
           let s = Segdb_geom.Segment.with_id s (n + 1_000_000 + !qi) in
           incr qi;
           try Db.insert db s with Invalid_argument _ -> ()))
  in
  List.concat
    [
      List.map (fun (name, b) -> query_test name b) Db.all_backends;
      [
        build_test "naive" `Naive;
        build_test "rtree" `Rtree;
        build_test "solution1" `Solution1;
        build_test "solution2" `Solution2;
      ];
      [ insert_test "solution1" `Solution1; insert_test "solution2" `Solution2 ];
    ]

(* blocks/op companion to the E11 query timings: the same query mix,
   costed in simulated block transfers on a warm pool *)
let query_block_costs () =
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let queries = W.segment_queries (Rng.create 43) ~n:64 ~span ~selectivity:0.02 in
  List.map
    (fun (name, backend) ->
      let db = Db.create ~backend ~block:64 ~pool_blocks:64 segs in
      let io = Db.io db in
      Array.iter (fun q -> ignore (Db.count db q)) queries;
      let before = Segdb_io.Io_stats.snapshot io in
      Array.iter (fun q -> ignore (Db.count db q)) queries;
      let d = Segdb_io.Io_stats.diff before (Segdb_io.Io_stats.snapshot io) in
      ( name,
        float_of_int (Segdb_io.Io_stats.snapshot_total d) /. float_of_int (Array.length queries)
      ))
    Db.all_backends

let run_wall_clock () =
  let block_costs = query_block_costs () in
  let tests = Test.make_grouped ~name:"segdb" (wall_clock_tests ()) in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if quick then 0.1 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let table =
    Segdb_util.Table.create ~title:"E11: wall-clock (Bechamel, monotonic clock)"
      ~columns:[ "benchmark"; "ns/op" ]
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows
  |> List.iter (fun (name, est) ->
         let ns =
           match Analyze.OLS.estimates est with Some [ v ] -> v | _ -> nan
         in
         (match String.split_on_char '/' name with
         | [ _; op; backend ] ->
             add_json
               {
                 (row backend op) with
                 ns_per_op = (if Float.is_nan ns then None else Some ns);
                 blocks_per_op =
                   (if op = "query" then List.assoc_opt backend block_costs else None);
               }
         | _ -> ());
         Segdb_util.Table.add_row table
           [ name; Segdb_util.Table.cell_float ~decimals:0 ns ]);
  Segdb_util.Table.print table

(* ---------------- query latency percentiles ---------------- *)

(* The obs layer measuring itself honest: per-query latency recorded
   into a histogram (not OLS-fitted means, so tail behaviour shows),
   plus blocks/op over the same mix. Observability is ON here — these
   numbers include the probe overhead by design; E11 above stays OFF
   and guards the uninstrumented hot path. *)

let run_latency_percentiles () =
  Segdb_obs.Control.with_enabled @@ fun () ->
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let queries = W.segment_queries (Rng.create 43) ~n:64 ~span ~selectivity:0.02 in
  let rounds = if quick then 4 else 32 in
  let table =
    Segdb_util.Table.create
      ~title:
        (Printf.sprintf "query latency percentiles: n=%d, %d queries x %d rounds (obs on)" n
           (Array.length queries) rounds)
      ~columns:[ "backend"; "p50 us"; "p90 us"; "p99 us"; "max us"; "blocks/op" ]
  in
  List.iter
    (fun (name, backend) ->
      let db = Db.create ~backend ~block:64 ~pool_blocks:64 segs in
      let io = Db.io db in
      Array.iter (fun q -> ignore (Db.count db q)) queries;
      let h = Segdb_obs.Histogram.create () in
      let before = Segdb_io.Io_stats.snapshot io in
      for _ = 1 to rounds do
        Array.iter
          (fun q ->
            let t0 = Segdb_obs.Trace.now_ns () in
            ignore (Db.count db q);
            Segdb_obs.Histogram.record h (Segdb_obs.Trace.now_ns () - t0))
          queries
      done;
      let d = Segdb_io.Io_stats.diff before (Segdb_io.Io_stats.snapshot io) in
      let ops = rounds * Array.length queries in
      let blocks = float_of_int (Segdb_io.Io_stats.snapshot_total d) /. float_of_int ops in
      let p p = Segdb_obs.Histogram.percentile h p in
      add_json
        {
          (row name "query_latency") with
          blocks_per_op = Some blocks;
          p50_ns = Some (p 0.5);
          p90_ns = Some (p 0.9);
          p99_ns = Some (p 0.99);
        };
      Segdb_util.Table.add_row table
        [
          name;
          Segdb_util.Table.cell_float ~decimals:1 (p 0.5 /. 1e3);
          Segdb_util.Table.cell_float ~decimals:1 (p 0.9 /. 1e3);
          Segdb_util.Table.cell_float ~decimals:1 (p 0.99 /. 1e3);
          Segdb_util.Table.cell_float ~decimals:1
            (float_of_int (Segdb_obs.Histogram.max_value h) /. 1e3);
          Segdb_util.Table.cell_float ~decimals:2 blocks;
        ])
    Db.all_backends;
  Segdb_util.Table.print table

(* Where a solution2 query spends its time and its blocks, phase by
   phase: the per-phase span histograms over the standard query mix. *)
let run_traced_phases () =
  Segdb_obs.Control.with_enabled @@ fun () ->
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let queries = W.segment_queries (Rng.create 43) ~n:64 ~span ~selectivity:0.02 in
  let db = Db.create ~backend:`Solution2 ~block:64 ~pool_blocks:64 segs in
  Segdb_obs.Metrics.reset Segdb_obs.Metrics.default;
  Array.iter (fun q -> ignore (Db.count db q)) queries;
  print_string (Segdb_obs.Export.phase_summary Segdb_obs.Metrics.default)

(* Observability overhead: the same solution2 query mix timed with the
   obs layer off (every probe site reduced to one Atomic.get), on
   (spans recorded into per-domain rings, histograms fed), and on with
   the background sampler ticking at 100ms and at 10ms. The rows are
   the PR's overhead contract: obs-off must stay within noise of the
   uninstrumented hot path, and the sampler — which only reads the
   registry from its own domain — must not move the query numbers. *)
let run_obs_overhead () =
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let queries = W.segment_queries (Rng.create 43) ~n:64 ~span ~selectivity:0.02 in
  let db = Db.create ~backend:`Solution2 ~block:64 ~pool_blocks:64 segs in
  Array.iter (fun q -> ignore (Db.count db q)) queries;
  let rounds = if quick then 8 else 64 in
  let measure () =
    let t0 = Segdb_obs.Trace.now_ns () in
    for _ = 1 to rounds do
      Array.iter (fun q -> ignore (Db.count db q)) queries
    done;
    float_of_int (Segdb_obs.Trace.now_ns () - t0)
    /. float_of_int (rounds * Array.length queries)
  in
  Segdb_obs.Control.disable ();
  let off = measure () in
  let on =
    Segdb_obs.Control.with_enabled (fun () ->
        Segdb_obs.Trace.clear ();
        measure ())
  in
  let with_sampler interval_ms =
    Segdb_obs.Control.with_enabled (fun () ->
        Segdb_obs.Sampler.start ~interval_ms ();
        Fun.protect ~finally:Segdb_obs.Sampler.stop measure)
  in
  let s100 = with_sampler 100 in
  let s10 = with_sampler 10 in
  add_json { (row "solution2" "query_obs_off") with ns_per_op = Some off };
  add_json { (row "solution2" "query_obs_on") with ns_per_op = Some on };
  add_json { (row "solution2" "query_sampler_100ms") with ns_per_op = Some s100 };
  add_json { (row "solution2" "query_sampler_10ms") with ns_per_op = Some s10 };
  Printf.printf
    "solution2 query mix: %.1f us/op obs off, %.1f us/op obs on (%+.1f%%), %.1f us/op \
     sampler@100ms, %.1f us/op sampler@10ms\n"
    (off /. 1e3) (on /. 1e3)
    (100.0 *. ((on /. off) -. 1.0))
    (s100 /. 1e3) (s10 /. 1e3)

(* ---------------- parallel query throughput ---------------- *)

(* The read path split in action: one database, per-domain readers,
   whole batches answered by [Exec.run] on the default pool. Scaling
   beyond 1 domain requires that many hardware threads — the JSON
   records the machine's count so flat curves are attributable. *)

let run_parallel_throughput () =
  let module Exec = Segdb_exec.Exec in
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let nq = if quick then 128 else 512 in
  let queries = W.segment_queries (Rng.create 45) ~n:nq ~span ~selectivity:0.02 in
  let table =
    Segdb_util.Table.create
      ~title:
        (Printf.sprintf "parallel query throughput: n=%d, %d-query batches (queries/sec)" n
           nq)
      ~columns:[ "backend"; "1 domain"; "2 domains"; "4 domains"; "4v1" ]
  in
  List.iter
    (fun (name, backend) ->
      let db = Db.create ~backend ~block:64 ~pool_blocks:64 segs in
      (* warm the shared pool so every domain count sees the same state *)
      Array.iter (fun q -> ignore (Db.count db q)) queries;
      let qps domains =
        let readers = Array.init domains (fun _ -> Db.reader db) in
        let batch () =
          ignore
            (Exec.run ~readers (Exec.default ()) db
               (Exec.request ~degraded_ok:false queries) ~domains)
        in
        batch ();
        let min_elapsed = if quick then 0.05 else 0.3 in
        let batches = ref 0 in
        let t0 = Unix.gettimeofday () in
        let elapsed = ref 0.0 in
        while !elapsed < min_elapsed do
          batch ();
          incr batches;
          elapsed := Unix.gettimeofday () -. t0
        done;
        float_of_int (!batches * nq) /. !elapsed
      in
      let q1 = qps 1 and q2 = qps 2 and q4 = qps 4 in
      List.iter
        (fun (d, q) ->
          add_json
            {
              (row name "parallel_query") with
              ns_per_op = Some (1e9 /. q);
              queries_per_sec = Some q;
              domains = Some d;
            })
        [ (1, q1); (2, q2); (4, q4) ];
      Segdb_util.Table.add_row table
        [
          name;
          Segdb_util.Table.cell_float ~decimals:0 q1;
          Segdb_util.Table.cell_float ~decimals:0 q2;
          Segdb_util.Table.cell_float ~decimals:0 q4;
          Segdb_util.Table.cell_float ~decimals:2 (q4 /. q1);
        ])
    Db.all_backends;
  Segdb_util.Table.print table;
  Printf.printf "(machine reports %d hardware thread(s))\n"
    (Domain.recommended_domain_count ())

(* ---------------- execution engine: deadline plateau ---------------- *)

(* The deadline in action: a thrashing naive scan (shared pool far
   smaller than the index, so every query pays cold reads) with and
   without a 2ms budget — cooperative cancellation at block-fetch granularity means the cold
   reads charged to the workers' readers plateau instead of running
   the whole batch.

   JSON rows: [deadline_full]/[deadline_tight] carry the total cold
   reads in [blocks_per_op] and the answered-query count in
   [domains]. *)

let run_deadline_plateau () =
  let module Exec = Segdb_exec.Exec in
  let span = 1000.0 in
  let n_slow = if quick then 1 lsl 11 else 1 lsl 13 in
  let slow_segs = W.uniform (Rng.create 48) ~n:n_slow ~span in
  let slow_db = Db.create ~backend:`Naive ~block:8 ~pool_blocks:8 slow_segs in
  let slow_qs = W.segment_queries (Rng.create 49) ~n:64 ~span ~selectivity:0.05 in
  let pool = Exec.create ~workers:1 () in
  let run_with ~deadline_ms =
    let readers = Array.init 2 (fun _ -> Db.reader slow_db) in
    let outcome, stats =
      Exec.run ~readers pool slow_db (Exec.request ~deadline_ms slow_qs) ~domains:2
    in
    let reads = Array.fold_left (fun acc (s : Exec.worker_stats) -> acc + s.reads) 0 stats in
    let answered =
      match outcome with
      | Exec.Ok out | Exec.Degraded (out, _) -> Array.length out
      | Exec.Deadline_exceeded { completed; _ } | Exec.Cancelled { completed; _ } ->
          completed
      | Exec.Overloaded -> 0
    in
    (reads, answered)
  in
  let full_reads, full_answered = run_with ~deadline_ms:0 in
  let tight_reads, tight_answered = run_with ~deadline_ms:2 in
  Exec.shutdown pool;
  List.iter
    (fun (op, reads, answered) ->
      add_json
        { (row "naive" op) with blocks_per_op = Some (float_of_int reads); domains = Some answered })
    [ ("deadline_full", full_reads, full_answered);
      ("deadline_tight", tight_reads, tight_answered) ];
  Printf.printf
    "deadline plateau (naive, %d queries, 2 domains): no budget %d cold reads / %d answered;\n\
    \  2ms budget %d cold reads / %d answered\n"
    (Array.length slow_qs) full_reads full_answered tight_reads tight_answered

(* ---------------- loopback serving throughput ---------------- *)

(* The serving layer measured end to end over a Unix socket: frame
   encode + CRC + syscalls + queue + worker execution + response
   decode, per request. One concurrent client domain per worker domain
   keeps every worker busy (a single blocking client would serialize
   the server). Latencies are recorded per request into per-client
   histograms and merged, so the p99 covers queueing, not just
   execution. *)

let run_net_throughput () =
  let module Server = Segdb_net.Server in
  let module Client = Segdb_net.Client in
  let n = if quick then 1 lsl 12 else 1 lsl 15 in
  let span = 1000.0 in
  let segs = W.uniform (Rng.create 42) ~n ~span in
  let nq = 64 in
  let queries = W.segment_queries (Rng.create 46) ~n:nq ~span ~selectivity:0.02 in
  let db = Db.create ~backend:`Solution2 ~block:64 ~pool_blocks:64 segs in
  let dir = Filename.temp_file "segdb_bench_net" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let min_elapsed = if quick then 0.1 else 0.5 in
  let table =
    Segdb_util.Table.create
      ~title:
        (Printf.sprintf
           "loopback serving throughput: solution2, n=%d, unix socket (obs off)" n)
      ~columns:[ "domains"; "requests/sec"; "p50 us"; "p99 us"; "max us" ]
  in
  List.iter
    (fun domains ->
      let sock = Filename.concat dir (Printf.sprintf "bench%d.sock" domains) in
      let srv = Server.create ~domains ~queue_depth:256 ~db (Server.Unix_path sock) in
      Server.start srv;
      let stop_clients = Atomic.make false in
      let client i () =
        let c = Client.connect (Server.Unix_path sock) in
        let h = Segdb_obs.Histogram.create () in
        let count = ref 0 in
        let qi = ref (i * 17) in
        while not (Atomic.get stop_clients) do
          let q = queries.(!qi mod nq) in
          incr qi;
          let t0 = Segdb_obs.Trace.now_ns () in
          ignore (Client.query c q);
          Segdb_obs.Histogram.record h (Segdb_obs.Trace.now_ns () - t0);
          incr count
        done;
        Client.close c;
        (h, !count)
      in
      let t0 = Unix.gettimeofday () in
      let clients = List.init domains (fun i -> Domain.spawn (client i)) in
      Unix.sleepf min_elapsed;
      Atomic.set stop_clients true;
      let results = List.map Domain.join clients in
      let elapsed = Unix.gettimeofday () -. t0 in
      Server.stop srv;
      Server.wait srv;
      let h = Segdb_obs.Histogram.create () in
      List.iter (fun (hc, _) -> Segdb_obs.Histogram.merge_into ~into:h hc) results;
      let total = List.fold_left (fun acc (_, c) -> acc + c) 0 results in
      let rps = float_of_int total /. elapsed in
      let p p' = Segdb_obs.Histogram.percentile h p' in
      add_json
        {
          (row "solution2" "net_query") with
          ns_per_op = Some (1e9 /. Float.max rps 1e-9);
          queries_per_sec = Some rps;
          domains = Some domains;
          p50_ns = Some (p 0.5);
          p99_ns = Some (p 0.99);
        };
      Segdb_util.Table.add_row table
        [
          string_of_int domains;
          Segdb_util.Table.cell_float ~decimals:0 rps;
          Segdb_util.Table.cell_float ~decimals:1 (p 0.5 /. 1e3);
          Segdb_util.Table.cell_float ~decimals:1 (p 0.99 /. 1e3);
          Segdb_util.Table.cell_float ~decimals:1
            (float_of_int (Segdb_obs.Histogram.max_value h) /. 1e3);
        ])
    [ 1; 2; 4 ];
  Segdb_util.Table.print table;
  Printf.printf "(one client domain per worker domain; machine reports %d hardware thread(s))\n"
    (Domain.recommended_domain_count ());
  Unix.rmdir dir

(* ---------------- persistence: cold vs warm open ---------------- *)

(* Not a complexity claim from the paper — an engineering table for the
   storage layer: what a snapshot buys over a rebuild, per backend, and
   what the file-backed block store costs in real syscalls. *)

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let run_persistence () =
  let n = if quick then 1 lsl 12 else 1 lsl 16 in
  let segs = W.roads (Rng.create 42) ~n ~span:1000.0 in
  let dir = Filename.temp_file "segdb_bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let snap = Filename.concat dir "db.snap" in
  let table =
    Segdb_util.Table.create
      ~title:(Printf.sprintf "persistence: n=%d roads, build vs snapshot open (seconds)" n)
      ~columns:[ "backend"; "build"; "save"; "open img"; "open rebuild"; "snap MB" ]
  in
  List.iter
    (fun (name, backend) ->
      let db, t_build = time (fun () -> Db.create ~backend ~block:64 segs) in
      let (), t_save = time (fun () -> Db.save db snap) in
      let mb = float_of_int (Unix.stat snap).Unix.st_size /. 1048576.0 in
      let (db_img, mode), t_img = time (fun () -> Db.open_db_mode snap) in
      assert (mode = Db.Restored_image && Db.size db_img = Db.size db);
      let (db_rb, mode), t_rb = time (fun () -> Db.open_db_mode ~use_image:false snap) in
      assert (mode = Db.Rebuilt && Db.size db_rb = Db.size db);
      Segdb_util.Table.add_row table
        [
          name;
          Segdb_util.Table.cell_float ~decimals:3 t_build;
          Segdb_util.Table.cell_float ~decimals:3 t_save;
          Segdb_util.Table.cell_float ~decimals:3 t_img;
          Segdb_util.Table.cell_float ~decimals:3 t_rb;
          Segdb_util.Table.cell_float ~decimals:1 mb;
        ])
    Db.all_backends;
  Segdb_util.Table.print table;
  Sys.remove snap;
  (* file-backed block store: page I/O per op, sequential fill + readback *)
  let module P = struct
    type t = float array

    let codec = Segdb_io.Codec.(array float)
  end in
  let module FS = Segdb_io.File_store.Make (P) in
  let blocks = if quick then 512 else 8192 in
  let payload = Array.init 64 float_of_int in
  let path = Filename.concat dir "store.blk" in
  let io = Segdb_io.Io_stats.create () in
  let s = FS.create ~page_size:4096 ~cache_blocks:64 ~stats:io ~path () in
  let addrs, t_fill =
    time (fun () ->
        let a = Array.init blocks (fun _ -> FS.alloc s payload) in
        FS.sync s;
        a)
  in
  let t_read =
    let rng = Rng.create 7 in
    snd
      (time (fun () ->
           for _ = 1 to blocks do
             ignore (FS.read s (addrs.(Rng.int rng blocks)))
           done))
  in
  Printf.printf
    "file store: %d blocks of 64 floats, page 4K, cache 64\n\
    \  fill+sync %.3fs (%d page writes), random read %.3fs (%d page reads)\n"
    blocks t_fill (Segdb_io.Io_stats.writes io) t_read (Segdb_io.Io_stats.reads io);
  FS.close s;
  Sys.remove path;
  Unix.rmdir dir

(* ---------------- replication: catch-up, lag, failover ---------------- *)

(* Three wall-clock figures for the WAL-shipping pair, written to
   BENCH_PR9.json: how fast a replica replays a primary's WAL tail
   (records/s), how far a synced replica trails the primary's commits
   (write-to-ack latency), and how long a kill + promote + client
   failover takes end to end. *)
let run_replication () =
  let module Server = Segdb_net.Server in
  let module Client = Segdb_net.Client in
  let module Repl = Segdb_net.Replication in
  let records = if quick then 1_500 else 6_000 in
  let writes = if quick then 100 else 300 in
  let dir = Filename.temp_file "segdb_bench_repl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let psock = Filename.concat dir "p.sock"
  and rsock = Filename.concat dir "r.sock" in
  let span = 1000.0 in
  (* [W.uniform] may come up short of [n]; over-generate and check *)
  let segs = W.uniform (Rng.create 11) ~n:(2 * (records + writes)) ~span in
  assert (Array.length segs >= records + writes);
  (* both nodes start empty: every stored segment travels as a
     replicated record, so catch-up replays exactly [records] records *)
  let pdb = Db.create ~backend:`Solution2 ~block:64 [||] in
  let primary = Server.create ~domains:2 ~db:pdb (Server.Unix_path psock) in
  Server.start primary;
  let c = Client.connect (Server.Unix_path psock) in
  for i = 0 to records - 1 do
    ignore (Client.insert c segs.(i))
  done;
  (* catch-up: a replica that shares the epoch but has nothing replays
     the whole tail via the records path (no snapshot shortcut) *)
  let rdb = Db.create ~backend:`Solution2 ~block:64 [||] in
  let replica =
    Server.create ~epoch:1 ~replica_of:(Server.Unix_path psock) ~db:rdb
      (Server.Unix_path rsock)
  in
  let t0 = Unix.gettimeofday () in
  Server.start replica;
  let deadline = t0 +. 60.0 in
  while
    Repl.lsn (Server.replication replica) < records
    && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.001
  done;
  let catchup_s = Unix.gettimeofday () -. t0 in
  let caught_up = Repl.lsn (Server.replication replica) >= records in
  let catchup_rps = float_of_int records /. Float.max catchup_s 1e-9 in
  (* steady-state lag: commit at the primary, wait for the replica's ack *)
  let ack_ms = ref [] in
  let prepl = Server.replication primary in
  for i = 0 to writes - 1 do
    let w0 = Unix.gettimeofday () in
    let lsn, _ = Client.insert c segs.(records + i) in
    while not (List.exists (fun (_, a) -> a >= lsn) (Repl.acks prepl)) do
      Unix.sleepf 0.0002
    done;
    ack_ms := ((Unix.gettimeofday () -. w0) *. 1e3) :: !ack_ms
  done;
  let sorted = List.sort compare !ack_ms in
  let pct p =
    let a = Array.of_list sorted in
    a.(min (Array.length a - 1) (int_of_float (p *. float_of_int (Array.length a))))
  in
  let p50 = pct 0.5 and p99 = pct 0.99 in
  (* failover: kill the primary mid-conversation, promote the replica,
     and time until a multi-endpoint client answers again *)
  let fc =
    Client.connect_many [ Server.Unix_path psock; Server.Unix_path rsock ]
  in
  let q = W.segment_queries (Rng.create 13) ~n:1 ~span ~selectivity:0.02 in
  ignore (Client.query fc q.(0));
  let rc = Client.connect (Server.Unix_path rsock) in
  let f0 = Unix.gettimeofday () in
  Server.kill primary;
  Client.close c;
  Server.wait primary;
  ignore (Client.promote rc);
  ignore (Client.query fc q.(0));
  let failover_ms = (Unix.gettimeofday () -. f0) *. 1e3 in
  Printf.printf
    "catch-up: %d records in %.3fs (%.0f records/s)%s\n\
     steady-state write-to-ack: p50 %.2f ms, p99 %.2f ms over %d writes\n\
     failover (kill + promote + client retarget): %.1f ms\n"
    records catchup_s catchup_rps
    (if caught_up then "" else " [DID NOT CONVERGE]")
    p50 p99 writes failover_ms;
  Client.close rc;
  Client.close fc;
  Server.stop replica;
  Server.wait replica;
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ psock; rsock ];
  (try Unix.rmdir dir with Unix.Unix_error (_, _, _) -> ());
  let oc = open_out "BENCH_PR9.json" in
  Printf.fprintf oc
    "{\n\
    \  \"catchup\": { \"records\": %d, \"seconds\": %.6g, \"records_per_sec\": \
     %.6g, \"converged\": %b },\n\
    \  \"steady_state_lag\": { \"writes\": %d, \"ack_p50_ms\": %.6g, \
     \"ack_p99_ms\": %.6g },\n\
    \  \"failover\": { \"kill_to_first_answer_ms\": %.6g }\n\
     }\n"
    records catchup_s catchup_rps caught_up writes p50 p99 failover_ms;
  close_out oc;
  Printf.printf "wrote BENCH_PR9.json\n"

(* ---------------- main ---------------- *)

let () =
  let params = if quick then Harness.quick else Harness.default in
  Printf.printf "segdb bench harness (%s mode)\n" (if quick then "quick" else "full");
  Printf.printf "=== I/O experiment tables (E1-E10, E12-E16) ===\n";
  Registry.run_ids ~params [];
  Printf.printf "\n=== E11: wall-clock timing ===\n\n";
  (* E11 guards the uninstrumented hot path: observability must be off *)
  Segdb_obs.Control.disable ();
  run_wall_clock ();
  Printf.printf "\n=== query latency percentiles (observability on) ===\n\n";
  run_latency_percentiles ();
  Printf.printf "\n=== solution2 per-phase spans ===\n\n";
  run_traced_phases ();
  Printf.printf "\n=== observability overhead (off vs on) ===\n\n";
  run_obs_overhead ();
  Printf.printf "\n=== parallel query throughput ===\n\n";
  run_parallel_throughput ();
  Printf.printf "\n=== execution engine: deadline plateau ===\n\n";
  run_deadline_plateau ();
  Printf.printf "\n=== loopback serving throughput ===\n\n";
  run_net_throughput ();
  Printf.printf "\n=== persistence: snapshot open + file store ===\n\n";
  run_persistence ();
  Printf.printf "\n=== replication: catch-up, lag, failover ===\n\n";
  run_replication ();
  print_newline ();
  write_json "BENCH_PR10.json"
