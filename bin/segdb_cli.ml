(* segdb command-line interface.

   Subcommands:
     generate  — emit a workload family as a segment file
     stats     — build an index and print structural statistics
     query     — run vertical line/ray/segment queries against a file
     compare   — run a query workload across all backends (I/O table)
     batch     — answer a file of queries in parallel across domains
     save      — build an index and snapshot it to disk
     open      — reopen a snapshot (image restore or rebuild) + optional WAL
     recover   — replay a WAL over a snapshot, optionally checkpointing
     scrub     — verify a snapshot file: CRCs, index invariants
     repair    — rebuild a damaged snapshot from surviving sections + WAL
     ping      — round-trip a ping frame against a running server
     shutdown  — ask a running server to drain and exit

   query, batch and stats accept --connect HOST:PORT (or unix:PATH) to
   run against a server instead of building an index in-process.

   Fault injection: every subcommand honours SEGDB_FAILPOINTS (see
   Segdb_io.Failpoint), e.g.
     SEGDB_FAILPOINTS="segdb.query=eio" segdb_cli open roads.snap -x 420

   Examples:
     segdb_cli generate --family roads -n 10000 -o roads.seg
     segdb_cli query roads.seg --backend solution2 --x 420 --ylo 10 --yhi 90
     segdb_cli compare roads.seg --queries 50 --selectivity 0.02
     segdb_cli batch roads.seg --queries-file q.txt --domains 4
     segdb_cli save roads.seg -o roads.snap --backend solution2
     segdb_cli open roads.snap --wal roads.wal --x 420 --ylo 10 --yhi 90
     segdb_cli recover roads.snap --wal roads.wal --checkpoint roads.snap   *)

open Cmdliner
open Segdb_geom
module W = Segdb_workload.Workload
module Db = Segdb_core.Segdb
module Seg_file = Segdb_core.Seg_file
module Rng = Segdb_util.Rng
module Table = Segdb_util.Table
module Io_stats = Segdb_io.Io_stats
module Wal = Segdb_io.Wal
module Failpoint = Segdb_io.Failpoint
module Snapshot = Segdb_core.Snapshot
module Obs = Segdb_obs
module Exec = Segdb_exec.Exec
module Server = Segdb_net.Server
module Client = Segdb_net.Client

(* ---------------- shared arguments ---------------- *)

let seed_t = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")

(* An integer option with a lower bound: a smaller value is a usage
   error that names the bound, not an uncaught exception. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S: expected an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = int_at_least 1

let block_t =
  Arg.(
    value
    & opt (int_at_least Segdb_core.Vs_index.min_block) 64
    & info [ "block"; "B" ] ~docv:"B" ~doc:"Items per disk block.")

let pool_t =
  Arg.(
    value & opt positive_int 64
    & info [ "pool" ] ~docv:"BLOCKS" ~doc:"Buffer pool capacity in blocks.")

let backend_conv =
  let parse s =
    match Db.backend_of_string s with
    | Some b -> Ok b
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown backend %S (expected one of: %s)" s
               (String.concat ", " (List.map fst Db.all_backends))))
  in
  let print ppf b =
    let name = List.find (fun (_, b') -> b' = b) Db.all_backends |> fst in
    Format.pp_print_string ppf name
  in
  Arg.conv (parse, print)

let backend_t =
  Arg.(
    value
    & opt backend_conv `Solution2
    & info [ "backend" ] ~docv:"NAME" ~doc:"Index backend (see $(b,--help) for the list).")

let file_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Segment file.")

let addr_conv =
  let parse s =
    match Server.addr_of_string s with Ok a -> Ok a | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, Server.pp_addr)

(* --connect takes a comma-separated endpoint list; with more than one
   the client fails over between them (health-probing each candidate),
   so a query keeps working across a primary kill + promote. *)
let addr_list_conv =
  let parse s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun p -> p <> "")
    in
    if parts = [] then Error (`Msg "empty address list")
    else
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
            match Server.addr_of_string p with
            | Ok a -> go (a :: acc) rest
            | Error m -> Error (`Msg m))
      in
      go [] parts
  in
  let print ppf addrs =
    Format.pp_print_string ppf
      (String.concat "," (List.map Server.addr_to_string addrs))
  in
  Arg.conv (parse, print)

let connect_t =
  Arg.(
    value
    & opt (some addr_list_conv) None
    & info [ "connect" ] ~docv:"ADDR[,ADDR...]"
        ~doc:
          "Run against a server at $(i,HOST:PORT) or $(i,unix:PATH) instead of building \
           an index in-process; the positional file argument is then unused. Several \
           comma-separated endpoints enable failover: a dead or draining endpoint is \
           skipped for the next one under the retry budget.")

(* query/batch/stats take the segment file positionally but can run
   remotely instead; the file is only demanded when there is no
   --connect. *)
let file_opt_t =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Segment file (not needed with $(b,--connect)).")

let require_file cmd = function
  | Some f -> f
  | None ->
      Printf.eprintf "%s: FILE argument required without --connect\n" cmd;
      exit 2

let degraded_note complete faults =
  if complete then ""
  else Printf.sprintf " [DEGRADED: partial result; %s]" (String.concat "; " faults)

let selectivity_t =
  Arg.(
    value & opt float 0.02
    & info [ "selectivity" ] ~docv:"F" ~doc:"Query height as a fraction of the span.")

(* ---------------- generate ---------------- *)

let generate family n span seed out =
  let rng = Rng.create seed in
  let segs =
    match family with
    | "roads" -> W.roads rng ~n ~span
    | "uniform" -> W.uniform rng ~n ~span
    | "grid-city" -> W.grid_city rng ~n ~span:(int_of_float span) ~max_len:(max 4 (int_of_float span / 20))
    | "temporal" -> W.temporal rng ~n ~keys:(max 1 (n / 50)) ~horizon:(int_of_float span)
    | "fans" -> W.fans rng ~n ~centers:(max 1 (n / 500)) ~span:(int_of_float span)
    | "long-spans" -> W.long_spans rng ~n ~span
    | other ->
        Printf.eprintf "unknown family %S\n" other;
        exit 2
  in
  (match out with
  | Some path ->
      Seg_file.save path segs;
      Printf.printf "wrote %d segments to %s\n" (Array.length segs) path
  | None -> Seg_file.to_channel stdout segs);
  0

let family_t =
  Arg.(
    value
    & opt string "roads"
    & info [ "family" ]
        ~doc:"Workload family: roads, uniform, grid-city, temporal, fans, long-spans.")

let n_t = Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Segment count.")

let span_t =
  Arg.(value & opt float 1000.0 & info [ "span" ] ~docv:"S" ~doc:"Coordinate extent.")

let out_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file (default: stdout).")

let generate_cmd =
  Cmd.v
    (Cmd.info "generate" ~doc:"emit a workload family as a segment file")
    Term.(const generate $ family_t $ n_t $ span_t $ seed_t $ out_t)

(* ---------------- stats ---------------- *)

let format_conv =
  Arg.enum [ ("text", `Text); ("json", `Json); ("prometheus", `Prometheus) ]

let format_t =
  Arg.(
    value & opt format_conv `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Metrics output format: $(b,text), $(b,json) or $(b,prometheus).")

let render_metrics = function
  | `Text ->
      if not (Obs.Control.enabled ()) then
        print_endline "observability disabled (set SEGDB_OBS=1 to enable)\n";
      print_string (Obs.Export.text Obs.Metrics.default);
      print_string (Obs.Export.phase_summary Obs.Metrics.default)
  | `Json -> print_string (Obs.Export.json Obs.Metrics.default)
  | `Prometheus ->
      if not (Obs.Control.enabled ()) then
        print_endline "# observability disabled (set SEGDB_OBS=1 to enable)";
      print_string (Obs.Export.prometheus Obs.Metrics.default)

let stats_local file backend block pool nqueries selectivity seed format =
  if not (Obs.Control.forced_off ()) then Obs.Control.enable ();
  let segs = Seg_file.load file in
  let t0 = Unix.gettimeofday () in
  let db = Db.create ~backend ~block ~pool_blocks:pool segs in
  let dt = Unix.gettimeofday () -. t0 in
  if nqueries > 0 then begin
    let span =
      Array.fold_left (fun acc (s : Segment.t) -> Float.max acc (Segment.max_x s)) 1.0 segs
    in
    let queries = W.segment_queries (Rng.create seed) ~n:nqueries ~span ~selectivity in
    Array.iter (fun q -> ignore (Db.count db q)) queries
  end;
  (match format with
  | `Text ->
      Printf.printf "backend:      %s\n" (Db.backend_name db);
      Printf.printf "segments:     %d\n" (Db.size db);
      Printf.printf "blocks:       %d  (n/B = %d)\n" (Db.block_count db)
        (Array.length segs / block);
      Printf.printf "build:        %.3fs, %s\n\n" dt
        (Format.asprintf "%a" Io_stats.pp (Db.io db))
  | `Json | `Prometheus -> ());
  render_metrics format;
  0

(* Every remote entry point funnels through this: a client failure
   (retries exhausted, server gone) is an exit-code-1 diagnostic, not
   an uncaught exception. *)
let with_client addrs f =
  match
    let c = Client.connect_many addrs in
    Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)
  with
  | r -> r
  | exception Client.Error m ->
      Printf.eprintf "%s\n" m;
      1

(* The local/remote branch, shared by every subcommand that accepts
   --connect: remote work runs against a connected client, local work
   demands the positional file first. One place owns the dispatch
   instead of each subcommand re-growing its own. *)
let local_or_remote ~cmd ~connect ~file ~local ~remote =
  match connect with
  | Some addrs -> with_client addrs (fun c -> remote (Client.endpoint c) c)
  | None -> local (require_file cmd file)

(* Answer a batch on a pool of [domains - 1] workers plus the calling
   domain — the same engine the network server submits frames to, so
   local and served batches share scheduling, deadline and
   degraded-result semantics. Returns the per-query results (partial
   after a deadline), the per-domain accounting, the pool size, and an
   annotation for anything short of a complete answer. *)
let exec_batch ?(deadline_ms = 0) db qs ~domains =
  let pool = Exec.create ~workers:(domains - 1) () in
  let outcome, wstats =
    Fun.protect
      ~finally:(fun () -> Exec.shutdown pool)
      (fun () -> Exec.run pool db (Exec.request ~deadline_ms qs) ~domains)
  in
  let results, note =
    match outcome with
    | Exec.Ok results -> (results, None)
    | Exec.Degraded (results, faults) ->
        (results, Some (Printf.sprintf "DEGRADED: %s" (String.concat "; " faults)))
    | Exec.Deadline_exceeded { partial; completed } ->
        ( partial,
          Some
            (Printf.sprintf "deadline of %dms exceeded: %d of %d queries answered"
               deadline_ms completed (Array.length qs)) )
    | Exec.Overloaded -> assert false (* [run] participates inline; it is never refused *)
  in
  (results, wstats, Exec.size pool, note)

(* One line per query, shared by the local and remote batch paths. *)
let print_results ~verbose qs results =
  Array.iteri
    (fun i ids ->
      Printf.printf "%s -> %d segments\n"
        (Format.asprintf "%a" Vquery.pp qs.(i))
        (List.length ids);
      if verbose then List.iter (Printf.printf "  %d\n") ids)
    results

let stats file connect backend block pool nqueries selectivity seed format =
  local_or_remote ~cmd:"stats" ~connect ~file
    ~remote:(fun _addr c ->
      (* the server's live registry, over the wire *)
      print_string (Client.stats c format);
      0)
    ~local:(fun file -> stats_local file backend block pool nqueries selectivity seed format)

let stats_queries_t =
  Arg.(
    value & opt int 0
    & info [ "queries" ] ~docv:"N"
        ~doc:"Run N random queries before reporting, so query-path metrics are populated.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "build an index and print structural statistics plus the observability metrics \
          (counters, histograms, per-phase spans); with $(b,--connect), fetch a running \
          server's metrics over the wire instead")
    Term.(
      const stats $ file_opt_t $ connect_t $ backend_t $ block_t $ pool_t $ stats_queries_t
      $ selectivity_t $ seed_t $ format_t)

(* ---------------- query ---------------- *)

let write_trace_json path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Obs.Export.trace_json events));
  Printf.printf "trace JSON written to %s\n" path

(* The satellite fix: --trace used to print an empty table with no
   explanation when nothing survived in the ring. *)
let empty_trace_note () =
  print_endline
    "note: no spans were recorded — observability is off, or the trace ring wrapped and \
     dropped this query's spans (see Trace.set_capacity)"

let query_local file backend block pool q verbose trace trace_json =
  let segs = Seg_file.load file in
  let db = Db.create ~backend ~block ~pool_blocks:pool segs in
  let rid = Obs.Trace.fresh_request_id () in
  if trace then begin
    Obs.Control.enable ();
    Obs.Trace.clear ()
  end;
  let io = Db.io db in
  Io_stats.reset io;
  let hits = Obs.Trace.with_request_id rid (fun () -> Db.query db q) in
  Printf.printf "%s -> %d segments (%s)\n"
    (Format.asprintf "%a" Vquery.pp q)
    (List.length hits)
    (Format.asprintf "%a" Io_stats.pp io);
  if verbose then
    List.iter (fun s -> Printf.printf "  %s\n" (Format.asprintf "%a" Segment.pp s)) hits;
  if trace then begin
    let events = Obs.Trace.events () in
    print_newline ();
    if events = [] then empty_trace_note ()
    else begin
      print_string (Obs.Export.timeline events);
      print_newline ();
      print_string (Obs.Export.phase_summary Obs.Metrics.default)
    end;
    Option.iter (fun path -> write_trace_json path events) trace_json
  end;
  0

(* A traced remote query: ship the query with a client-generated
   request id, bracket the exchange in a local client.request span,
   then pull the server's spans for that id back and stitch the two
   rings into one timeline. *)
let query_remote_traced addr c q verbose trace_json =
  Obs.Control.enable ();
  Obs.Trace.clear ();
  let rid = Obs.Trace.fresh_request_id () in
  let r =
    Obs.Trace.with_request_id rid (fun () ->
        Obs.Trace.with_span "client.request" (fun () ->
            Client.batch c ~request_id:rid ~trace:true [| q |]))
  in
  let ids = r.Db.Degraded.value.(0) in
  Printf.printf "%s -> %d segments%s (via %s, request %x)\n"
    (Format.asprintf "%a" Vquery.pp q)
    (List.length ids)
    (degraded_note r.Db.Degraded.complete r.Db.Degraded.faults)
    (Server.addr_to_string addr)
    rid;
  if verbose then List.iter (Printf.printf "  %d\n") ids;
  let remote = Client.fetch_trace c ~request_id:rid in
  let local =
    List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.request_id = rid) (Obs.Trace.events ())
  in
  print_newline ();
  if remote = [] then
    print_endline
      "note: the server returned no spans — its observability is off (serve without \
       --no-obs), or its trace ring wrapped past this request";
  let events = remote @ local in
  if events = [] then empty_trace_note ()
  else begin
    Printf.printf "request %x timeline (%d client spans, %d server spans):\n" rid
      (List.length local) (List.length remote);
    print_string (Obs.Export.timeline events)
  end;
  Option.iter (fun path -> write_trace_json path events) trace_json;
  0

let query file connect backend block pool x ylo yhi verbose trace trace_json =
  let q =
    Vquery.segment ~x
      ~ylo:(Option.value ylo ~default:neg_infinity)
      ~yhi:(Option.value yhi ~default:infinity)
  in
  local_or_remote ~cmd:"query" ~connect ~file
    ~remote:(fun addr c ->
      if trace then query_remote_traced addr c q verbose trace_json
      else begin
        let r = Client.query c q in
        Printf.printf "%s -> %d segments%s (via %s)\n"
          (Format.asprintf "%a" Vquery.pp q)
          (List.length r.Db.Degraded.value)
          (degraded_note r.Db.Degraded.complete r.Db.Degraded.faults)
          (Server.addr_to_string addr);
        if verbose then List.iter (Printf.printf "  %d\n") r.Db.Degraded.value;
        0
      end)
    ~local:(fun file -> query_local file backend block pool q verbose trace trace_json)

let x_t = Arg.(required & opt (some float) None & info [ "x" ] ~docv:"X" ~doc:"Query abscissa.")

let ylo_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "ylo" ] ~docv:"Y" ~doc:"Lower query bound (omit for a downward ray/line).")

let yhi_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "yhi" ] ~docv:"Y" ~doc:"Upper query bound (omit for an upward ray/line).")

let verbose_t = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print matched segments.")

let trace_t =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Trace the query pipeline: print every recorded span (descent, PST, interval \
           tree, slab tree) as a timeline, with start offsets, durations and block \
           counts, plus the per-phase summary. \
           With $(b,--connect), the query ships with a client-generated request id, the \
           server's spans for it are fetched back, and the stitched \
           client→server→storage timeline is printed.")

let trace_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:
          "With $(b,--trace): also write the events as Chrome trace-event JSON \
           (loadable in Perfetto or chrome://tracing).")

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"run one vertical line/ray/segment query, locally or remotely")
    Term.(
      const query $ file_opt_t $ connect_t $ backend_t $ block_t $ pool_t $ x_t $ ylo_t
      $ yhi_t $ verbose_t $ trace_t $ trace_json_t)

(* ---------------- compare ---------------- *)

let compare_backends file block pool nqueries selectivity seed =
  let segs = Seg_file.load file in
  let span =
    Array.fold_left (fun acc (s : Segment.t) -> Float.max acc (Segment.max_x s)) 1.0 segs
  in
  let queries = W.segment_queries (Rng.create seed) ~n:nqueries ~span ~selectivity in
  let table =
    Table.create
      ~title:(Printf.sprintf "%s: %d queries, selectivity %.3f" file nqueries selectivity)
      ~columns:[ "backend"; "blocks"; "mean io"; "max io"; "mean t" ]
  in
  List.iter
    (fun (name, backend) ->
      let db = Db.create ~backend ~block ~pool_blocks:pool segs in
      let io = Db.io db in
      let st = Segdb_util.Stats.create () and out = Segdb_util.Stats.create () in
      Array.iter
        (fun q ->
          let before = Io_stats.snapshot io in
          let k = Db.count db q in
          let d = Io_stats.diff before (Io_stats.snapshot io) in
          Segdb_util.Stats.add st (float_of_int (Io_stats.snapshot_total d));
          Segdb_util.Stats.add out (float_of_int k))
        queries;
      Table.add_row table
        [
          name;
          Table.cell_int (Db.block_count db);
          Table.cell_float ~decimals:1 (Segdb_util.Stats.mean st);
          Table.cell_float ~decimals:0 (Segdb_util.Stats.max st);
          Table.cell_float ~decimals:1 (Segdb_util.Stats.mean out);
        ])
    Db.all_backends;
  Table.print table;
  0

let nqueries_t =
  Arg.(value & opt int 50 & info [ "queries" ] ~docv:"N" ~doc:"Number of random queries.")

let compare_cmd =
  Cmd.v
    (Cmd.info "compare" ~doc:"run a query workload across all backends")
    Term.(const compare_backends $ file_t $ block_t $ pool_t $ nqueries_t $ selectivity_t $ seed_t)

(* ---------------- batch ---------------- *)

(* One query per line: "X" (full line), "X YLO" (upward ray), or
   "X YLO YHI" (bounded segment). float_of_string accepts "inf" and
   "-inf", so unbounded ends can also be written explicitly. Blank
   lines and "#" comments are skipped. *)
let parse_queries name ic =
  let acc = ref [] in
  let lineno = ref 0 in
  (try
     while true do
       incr lineno;
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         let fields =
           String.split_on_char ' ' line
           |> List.concat_map (String.split_on_char '\t')
           |> List.filter (fun s -> s <> "")
         in
         match List.map float_of_string fields with
         | [ x ] -> acc := Vquery.line ~x :: !acc
         | [ x; ylo ] -> acc := Vquery.ray_up ~x ~ylo :: !acc
         | [ x; ylo; yhi ] -> acc := Vquery.segment ~x ~ylo ~yhi :: !acc
         | _ | (exception Failure _) ->
             Printf.eprintf "%s:%d: expected X [YLO [YHI]], got %S\n" name !lineno line;
             exit 2
       end
     done
   with End_of_file -> ());
  Array.of_list (List.rev !acc)

let load_queries path =
  if path = "-" then parse_queries "<stdin>" stdin
  else begin
    let ic = try open_in path with Sys_error m -> Printf.eprintf "%s\n" m; exit 2 in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> parse_queries path ic)
  end

(* --slow-ms on a local batch: arm the threshold for the run, dump
   whatever cleared it afterwards. (A separate `segdb_cli slowlog`
   invocation is a fresh process with an empty ring — the local dump
   has to happen here; the subcommand is for servers.) *)
let dump_local_slowlog () =
  if Obs.Slowlog.enabled () then begin
    let es = Obs.Slowlog.entries () in
    if es <> [] then begin
      print_newline ();
      print_string (Obs.Slowlog.to_text es)
    end
  end

let batch_local file backend block pool domains deadline_ms qs verbose =
  let segs = Seg_file.load file in
  let db = Db.create ~backend ~block ~pool_blocks:pool segs in
  let t0 = Unix.gettimeofday () in
  let results, wstats, pool_size, note = exec_batch ~deadline_ms db qs ~domains in
  let dt = Unix.gettimeofday () -. t0 in
  print_results ~verbose qs results;
  let reads = Array.fold_left (fun acc (w : Exec.worker_stats) -> acc + w.reads) 0 wstats in
  let answered = Array.fold_left (fun acc (w : Exec.worker_stats) -> acc + w.queries) 0 wstats in
  Printf.printf "%d queries, %d domains (pool of %d): %.3fs (%.0f queries/sec, %d block reads)\n"
    (Array.length qs) domains pool_size dt
    (float_of_int answered /. Float.max dt 1e-9)
    reads;
  (match note with None -> () | Some n -> Printf.printf "note: %s\n" n);
  let table =
    Table.create ~title:"per-domain readers"
      ~columns:[ "worker"; "queries"; "block reads"; "cache hits"; "cache misses" ]
  in
  Array.iter
    (fun (w : Exec.worker_stats) ->
      Table.add_row table
        [
          Table.cell_int w.worker;
          Table.cell_int w.queries;
          Table.cell_int w.reads;
          Table.cell_int w.cache_hits;
          Table.cell_int w.cache_misses;
        ])
    wstats;
  Table.print table;
  dump_local_slowlog ();
  0

let domains_t =
  Arg.(
    value & opt positive_int 4
    & info [ "domains" ] ~docv:"N" ~doc:"Worker domains answering the batch.")

let batch_deadline_t =
  Arg.(
    value & opt int 0
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Budget for the whole batch (local execution only; 0 disables). A batch that \
           runs past it stops issuing block reads at the next cancellation point and \
           reports the queries it completed — partial answers, exit status 0.")

let batch file connect backend block pool domains deadline_ms queries_file verbose slow_ms =
  let qs = load_queries queries_file in
  if Array.length qs = 0 then begin
    Printf.eprintf "%s: no queries\n" queries_file;
    exit 2
  end;
  Option.iter Obs.Slowlog.set_threshold_ms slow_ms;
  local_or_remote ~cmd:"batch" ~connect ~file
    ~remote:(fun addr c ->
      let t0 = Unix.gettimeofday () in
      let r = Client.batch c qs in
      let dt = Unix.gettimeofday () -. t0 in
      print_results ~verbose qs r.Db.Degraded.value;
      Printf.printf "%d queries via %s: %.3fs (%.0f queries/sec)%s\n" (Array.length qs)
        (Server.addr_to_string addr) dt
        (float_of_int (Array.length qs) /. Float.max dt 1e-9)
        (degraded_note r.Db.Degraded.complete r.Db.Degraded.faults);
      0)
    ~local:(fun file -> batch_local file backend block pool domains deadline_ms qs verbose)

let queries_file_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "queries-file"; "q" ] ~docv:"FILE"
        ~doc:
          "Query file: one query per line as $(i,X) (vertical line), $(i,X YLO) (upward \
           ray) or $(i,X YLO YHI) (bounded segment); blank lines and # comments ignored. \
           $(b,-) reads the queries from stdin.")

let slow_ms_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Arm the slow-query log at MS milliseconds (0 records every request; negative \
           disables; default: the $(b,SEGDB_SLOW_MS) environment variable). A local \
           batch dumps the records it collected after the run; a server exposes its \
           ring via $(b,segdb_cli slowlog --connect).")

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "answer a file of vertical queries on the persistent execution pool \
          ($(b,Segdb_exec)), fanning the batch across worker domains with private read \
          contexts and an optional deadline — or, with $(b,--connect), ship the batch to \
          a server as one frame")
    Term.(
      const batch $ file_opt_t $ connect_t $ backend_t $ block_t $ pool_t $ domains_t
      $ batch_deadline_t $ queries_file_t $ verbose_t $ slow_ms_t)

(* ---------------- save / open / recover ---------------- *)

let no_image_t =
  Arg.(
    value & flag
    & info [ "no-image" ]
        ~doc:
          "Omit (on $(b,save)) or ignore (on $(b,open)) the marshaled index image; the \
           snapshot is then opened by rebuilding from the segment section.")

let wal_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "wal" ] ~docv:"LOG" ~doc:"Write-ahead log to attach (created if absent).")

let save file out backend block pool no_image =
  let segs = Seg_file.load file in
  let db = Db.create ~backend ~block ~pool_blocks:pool segs in
  let t0 = Unix.gettimeofday () in
  Db.save ~image:(not no_image) db out;
  Printf.printf "wrote %s: %d segments, backend %s, %d bytes (%.3fs)\n" out (Db.size db)
    (Db.backend_name db)
    (Unix.stat out).Unix.st_size
    (Unix.gettimeofday () -. t0);
  0

let snap_out_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"SNAP" ~doc:"Snapshot file to write.")

let save_cmd =
  Cmd.v
    (Cmd.info "save" ~doc:"build an index over a segment file and snapshot it to disk")
    Term.(const save $ file_t $ snap_out_t $ backend_t $ block_t $ pool_t $ no_image_t)

let snap_t =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"SNAP" ~doc:"Snapshot file.")

let open_snapshot_exn snap no_image wal print_ids x ylo yhi =
  let t0 = Unix.gettimeofday () in
  let db, mode = Db.open_db_mode ~use_image:(not no_image) snap in
  let dt = Unix.gettimeofday () -. t0 in
  let mode_name = match mode with Db.Restored_image -> "image" | Db.Rebuilt -> "rebuild" in
  let replayed = match wal with None -> 0 | Some path -> Db.attach_wal db path in
  Printf.printf "opened %s via %s in %.3fs: backend %s, %d segments%s\n" snap mode_name dt
    (Db.backend_name db) (Db.size db)
    (if wal = None then "" else Printf.sprintf ", %d WAL records replayed" replayed);
  (match x with
  | None -> ()
  | Some x ->
      let q =
        Vquery.segment ~x
          ~ylo:(Option.value ylo ~default:neg_infinity)
          ~yhi:(Option.value yhi ~default:infinity)
      in
      let io = Db.io db in
      Io_stats.reset io;
      let { Db.Degraded.value = ids; complete; faults } = Db.query_safe db q in
      Printf.printf "%s -> %d segments%s (%s)\n"
        (Format.asprintf "%a" Vquery.pp q)
        (List.length ids)
        (if complete then ""
         else Printf.sprintf " [DEGRADED: partial result; %s]" (String.concat "; " faults))
        (Format.asprintf "%a" Io_stats.pp io);
      List.iter (Printf.printf "%d\n") ids);
  if print_ids then
    Array.iter (fun (s : Segment.t) -> Printf.printf "%d\n" s.Segment.id) (Db.segments db);
  Db.detach_wal db;
  0

let open_snapshot snap no_image wal print_ids x ylo yhi =
  try open_snapshot_exn snap no_image wal print_ids x ylo yhi
  with Segdb_core.Snapshot.Corrupt_snapshot msg ->
    Printf.eprintf "corrupt snapshot: %s\n" msg;
    1

let ids_t =
  Arg.(value & flag & info [ "ids" ] ~doc:"Print every stored segment id, sorted.")

let qx_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "x" ] ~docv:"X" ~doc:"Run one query at this abscissa and print matching ids.")

let open_cmd =
  Cmd.v
    (Cmd.info "open"
       ~doc:
         "reopen a snapshot (restoring the saved index image when this binary wrote it, \
          rebuilding otherwise) and optionally replay a WAL and run a query")
    Term.(const open_snapshot $ snap_t $ no_image_t $ wal_t $ ids_t $ qx_t $ ylo_t $ yhi_t)

let rec recover snap wal checkpoint_out dry_run =
  try if dry_run then recover_dry snap wal else recover_exn snap wal checkpoint_out
  with Segdb_core.Snapshot.Corrupt_snapshot msg ->
    Printf.eprintf "corrupt snapshot: %s\n" msg;
    1

(* Non-mutating preview: the WAL is scanned (never truncated), the
   snapshot is not even opened. *)
and recover_dry snap wal =
  let a = Wal.audit wal in
  let ops, skipped = Db.scan_wal wal in
  let inserts =
    List.length (List.filter (function Db.Op_insert _ -> true | _ -> false) ops)
  in
  Printf.printf "%s: %d intact records in %d bytes (%d inserts, %d deletes%s)\n" wal
    a.Wal.audit_records a.Wal.valid_bytes inserts
    (List.length ops - inserts)
    (if skipped = 0 then ""
     else Printf.sprintf ", %d undecodable records skipped" skipped);
  if a.Wal.file_bytes > a.Wal.valid_bytes then
    Printf.printf "torn tail: %d trailing bytes would be truncated on open\n"
      (a.Wal.file_bytes - a.Wal.valid_bytes);
  Printf.printf "replay would apply %d operations to %s (dry run: nothing modified)\n"
    (List.length ops) snap;
  0

and recover_exn snap wal checkpoint_out =
  let db, mode = Db.open_db_mode snap in
  let mode_name = match mode with Db.Restored_image -> "image" | Db.Rebuilt -> "rebuild" in
  let replayed = Db.attach_wal db wal in
  Printf.printf "recovered %s (%s) + %s: %d segments, %d WAL records replayed\n" snap
    mode_name wal (Db.size db) replayed;
  (match checkpoint_out with
  | None -> ()
  | Some out ->
      Db.checkpoint db out;
      Printf.printf "checkpointed to %s; %s truncated\n" out wal);
  Db.detach_wal db;
  0

let recover_wal_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "wal" ] ~docv:"LOG" ~doc:"Write-ahead log to replay.")

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"SNAP"
        ~doc:"After replay, snapshot the recovered index here and truncate the log.")

let dry_run_t =
  Arg.(
    value & flag
    & info [ "dry-run" ]
        ~doc:
          "Scan the log and print the surviving record count and what replay would \
           apply, mutating nothing (the torn tail is not truncated, the snapshot is \
           not opened).")

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:"replay a write-ahead log over a snapshot, optionally checkpointing the result")
    Term.(const recover $ snap_t $ recover_wal_t $ checkpoint_t $ dry_run_t)

(* ---------------- scrub / repair ---------------- *)

let scrub path wal queries =
  let findings = ref [] in
  let add src fs = List.iter (fun f -> findings := (src ^ ": " ^ f) :: !findings) fs in
  (if Snapshot.is_snapshot path then begin
     Printf.printf "%s: snapshot\n" path;
     let fs, _ = Snapshot.salvage ~path in
     add path fs;
     (* open refuses exactly the files salvage finds damaged, so only a
        clean file opens; then check the index it holds *)
     if fs = [] then
       match Db.open_db path with
       | db -> add path (Db.validate ~queries db)
       | exception Segdb_core.Snapshot.Corrupt_snapshot m -> add path [ m ]
   end
   else add path [ "unrecognized magic: not a segdb snapshot" ]);
  (match wal with
  | None -> ()
  | Some log ->
      let a = Wal.audit log in
      let _, skipped = Db.scan_wal log in
      Printf.printf "%s: %d intact records, %d/%d bytes valid\n" log a.Wal.audit_records
        a.Wal.valid_bytes a.Wal.file_bytes;
      if skipped > 0 then
        add log [ Printf.sprintf "%d intact records do not decode as operations" skipped ]);
  match List.rev !findings with
  | [] ->
      Printf.printf "clean\n";
      0
  | fs ->
      List.iter (Printf.printf "finding: %s\n") fs;
      Printf.printf "%d findings\n" (List.length fs);
      1

let scrub_queries_t =
  Arg.(
    value & opt int 25
    & info [ "queries" ] ~docv:"N"
        ~doc:
          "Cross-check N seeded random queries against a naive index (0 disables).")

let scrub_path_t =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"PATH" ~doc:"Snapshot file.")

let scrub_cmd =
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "verify a snapshot file: section checksums, index structural invariants (NCT, \
          PST order, interval containment, cascade bridges), plus an optional WAL \
          audit; exit 1 if anything is found")
    Term.(const scrub $ scrub_path_t $ wal_t $ scrub_queries_t)

let repair snap wal out =
  let fs, contents = Snapshot.salvage ~path:snap in
  List.iter (Printf.printf "salvage: %s\n") fs;
  match contents with
  | None ->
      Printf.eprintf "%s: segments section destroyed; nothing to rebuild from\n" snap;
      1
  | Some c ->
      let backend =
        match Db.backend_of_string c.Snapshot.header.Snapshot.backend with
        | Some b -> b
        | None ->
            Printf.printf "salvage: unknown backend %S, rebuilding as solution2\n"
              c.Snapshot.header.Snapshot.backend;
            `Solution2
      in
      let db =
        Db.create ~backend ~block:c.Snapshot.header.Snapshot.block
          ~pool_blocks:c.Snapshot.header.Snapshot.pool_blocks c.Snapshot.segments
      in
      let replayed =
        match wal with
        | None -> 0
        | Some log ->
            let ops, skipped = Db.scan_wal log in
            if skipped > 0 then
              Printf.printf "%s: %d undecodable records skipped\n" log skipped;
            Db.apply_wal_ops db ops;
            List.length ops
      in
      let remaining = Db.validate ~queries:16 db in
      List.iter (Printf.printf "validate: %s\n") remaining;
      Db.save db out;
      Printf.printf "repaired %s -> %s: %d segments, %d WAL operations replayed\n" snap
        out (Db.size db) replayed;
      if remaining = [] then 0 else 1

let repair_out_t =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"SNAP" ~doc:"Where to write the rebuilt snapshot.")

let repair_cmd =
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "rebuild a damaged snapshot from its surviving sections (a corrupt image \
          section costs only the fast open path; segments are authoritative), replay \
          an optional WAL over it, validate, and write a fresh snapshot; the inputs \
          are never modified")
    Term.(const repair $ scrub_path_t $ wal_t $ repair_out_t)

(* ---------------- verify ---------------- *)

let verify file =
  let segs = Seg_file.load file in
  let t0 = Unix.gettimeofday () in
  match Sweep.find_crossing segs with
  | None ->
      Printf.printf "%s: %d segments, NCT verified (%.3fs)\n" file (Array.length segs)
        (Unix.gettimeofday () -. t0);
      0
  | Some (a, b) ->
      Printf.printf "%s: CROSSING between %s and %s\n" file
        (Format.asprintf "%a" Segment.pp a)
        (Format.asprintf "%a" Segment.pp b);
      1

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "check that a segment file satisfies the NCT property (plane sweep, O(n log n); \
          exact on integer coordinates)")
    Term.(const verify $ file_t)

(* ---------------- ping / shutdown ---------------- *)

let server_pos_t =
  Arg.(
    required
    & pos 0 (some addr_conv) None
    & info [] ~docv:"ADDR" ~doc:"Server address: $(i,HOST:PORT) or $(i,unix:PATH).")

let ping_server addr count =
  with_client [ addr ] (fun c ->
      for _ = 1 to max 1 count do
        let t0 = Unix.gettimeofday () in
        Client.ping c;
        Printf.printf "pong from %s in %.2fms\n"
          (Server.addr_to_string addr)
          ((Unix.gettimeofday () -. t0) *. 1e3)
      done;
      0)

let ping_count_t =
  Arg.(value & opt int 1 & info [ "count"; "c" ] ~docv:"N" ~doc:"Number of pings.")

let ping_cmd =
  Cmd.v
    (Cmd.info "ping" ~doc:"round-trip a ping frame against a running server")
    Term.(const ping_server $ server_pos_t $ ping_count_t)

let shutdown_server addr =
  with_client [ addr ] (fun c ->
      Client.shutdown c;
      Printf.printf "server at %s draining\n" (Server.addr_to_string addr);
      0)

let shutdown_cmd =
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:
         "send a shutdown frame: the server stops accepting, answers what is queued, \
          and exits")
    Term.(const shutdown_server $ server_pos_t)

(* ---------------- replication: promote / repl-status / insert / delete ---------------- *)

let promote_server addr epoch =
  with_client [ addr ] (fun c ->
      let e = Client.promote ?epoch c in
      Printf.printf "%s is primary at epoch %d\n" (Server.addr_to_string addr) e;
      0)

let promote_epoch_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch" ] ~docv:"N"
        ~doc:
          "Force the fenced epoch (default: bump the node's current epoch by one). A \
           non-advancing epoch is refused with $(i,fenced).")

let promote_cmd =
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "turn a replica into a writable primary at a higher fenced epoch; a revived \
          stale primary is then refused by every node that saw the new epoch. \
          Idempotent on a node that is already primary.")
    Term.(const promote_server $ server_pos_t $ promote_epoch_t)

let repl_status_server addr =
  with_client [ addr ] (fun c ->
      let st = Client.repl_status c in
      Printf.printf "%s: role=%s epoch=%d lsn=%d last-progress %.1fs ago\n"
        (Server.addr_to_string addr)
        st.Segdb_net.Wire.role st.Segdb_net.Wire.epoch st.Segdb_net.Wire.lsn
        (float_of_int st.Segdb_net.Wire.progress_ms /. 1e3);
      List.iter
        (fun { Segdb_net.Wire.peer; acked_lsn; sent_lsn } ->
          Printf.printf "  replica %s acked lsn %d, sent lsn %d (lag %d)\n" peer
            acked_lsn sent_lsn
            (st.Segdb_net.Wire.lsn - acked_lsn))
        st.Segdb_net.Wire.peers;
      0)

let repl_status_cmd =
  Cmd.v
    (Cmd.info "repl-status"
       ~doc:
         "print a node's replication standing: role, fencing epoch, committed LSN, \
          time since the stream last made progress, and each subscribed replica's \
          acknowledged and sent cursors")
    Term.(const repl_status_server $ server_pos_t)

let seg_of_args id x1 y1 x2 y2 = Segment.make ~id (x1, y1) (x2, y2)

let insert_server addr id x1 y1 x2 y2 =
  with_client [ addr ] (fun c ->
      let lsn, changed = Client.insert c (seg_of_args id x1 y1 x2 y2) in
      Printf.printf "%s: id %d at lsn %d%s\n"
        (Server.addr_to_string addr)
        id lsn
        (if changed then "" else " (already present)");
      0)

let delete_server addr id x1 y1 x2 y2 =
  with_client [ addr ] (fun c ->
      let lsn, changed = Client.delete c (seg_of_args id x1 y1 x2 y2) in
      Printf.printf "%s: id %d at lsn %d%s\n"
        (Server.addr_to_string addr)
        id lsn
        (if changed then "" else " (not found)");
      0)

let seg_id_t =
  Arg.(required & opt (some int) None & info [ "id" ] ~docv:"ID" ~doc:"Segment id.")

let coord_t names doc =
  Arg.(required & opt (some float) None & info names ~docv:"F" ~doc)

let x1_t = coord_t [ "x1" ] "First endpoint abscissa."
let y1_t = coord_t [ "y1" ] "First endpoint ordinate."
let x2_t = coord_t [ "x2" ] "Second endpoint abscissa."
let y2_t = coord_t [ "y2" ] "Second endpoint ordinate."

let insert_cmd =
  Cmd.v
    (Cmd.info "insert"
       ~doc:
         "insert one segment through a running primary; the server acknowledges the \
          write from memory and replicates it to subscribers; a replica answers $(i,not \
          primary)")
    Term.(const insert_server $ server_pos_t $ seg_id_t $ x1_t $ y1_t $ x2_t $ y2_t)

let delete_cmd =
  Cmd.v
    (Cmd.info "delete"
       ~doc:
         "delete one segment through a running primary; the server acknowledges the \
          write from memory and replicates it to subscribers; a replica answers $(i,not \
          primary)")
    Term.(const delete_server $ server_pos_t $ seg_id_t $ x1_t $ y1_t $ x2_t $ y2_t)

(* ---------------- slowlog ---------------- *)

let slowlog connect json =
  let fmt = if json then `Json else `Text in
  match connect with
  | Some addr -> with_client addr (fun c -> print_string (Client.slowlog c fmt); 0)
  | None ->
      prerr_endline
        "slowlog needs --connect: the log lives in the server process. For a local \
         batch, pass --slow-ms to `segdb_cli batch` and the log is dumped when the \
         batch finishes.";
      2

let slowlog_json_t =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Dump the log as a JSON array instead of a table.")

let slowlog_cmd =
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:
         "dump a running server's slow-query log (queries whose wall time crossed the \
          $(b,--slow-ms) threshold the server was started with, oldest first)")
    Term.(const slowlog $ connect_t $ slowlog_json_t)

(* ---------------- top ---------------- *)

module Ascii_plot = Segdb_util.Ascii_plot
module Export = Obs.Export

let get = Export.value

let max_with_prefix sc prefix =
  List.fold_left
    (fun acc (n, v) ->
      if String.length n >= String.length prefix && String.sub n 0 (String.length prefix) = prefix
      then Some (Float.max (Option.value acc ~default:0.0) v)
      else acc)
    None sc.Export.values

let find_sub hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec go i = if i + ns > nh then None else if String.sub hay i ns = sub then Some i else go (i + 1) in
  go 0

(* minimal HTTP GET against the monitoring exporter *)
let http_get addr path =
  let fd = Server.dial addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      let b = Bytes.of_string req in
      let off = ref 0 in
      while !off < Bytes.length b do
        off := !off + Unix.write fd b !off (Bytes.length b - !off)
      done;
      let buf = Buffer.create 8192 in
      let chunk = Bytes.create 8192 in
      let rec drain () =
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      let raw = Buffer.contents buf in
      let body =
        match find_sub raw "\r\n\r\n" with
        | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
        | None -> raw
      in
      match String.index_opt raw ' ' with
      | Some i when String.length raw >= i + 4 && String.sub raw (i + 1) 3 = "200" -> body
      | _ ->
          failwith
            (Printf.sprintf "GET %s: %s" path
               (match String.index_opt raw '\r' with
               | Some j -> String.sub raw 0 j
               | None -> "no response")))

let top_history_len = 60

let push_history r v =
  r := v :: !r;
  let rec take k = function x :: tl when k > 0 -> x :: take (k - 1) tl | _ -> [] in
  r := take top_history_len !r

let spark r = Ascii_plot.sparkline ~width:30 (List.rev !r)

let top connect metrics_addr interval_ms iterations no_clear =
  let interval_s = Float.max 0.05 (float_of_int interval_ms /. 1e3) in
  let source, fetch, cleanup =
    match (connect, metrics_addr) with
    | Some addrs, _ ->
        let c =
          try Client.connect_many addrs
          with Client.Error m -> prerr_endline m; exit 1
        in
        ( Server.addr_to_string (Client.endpoint c),
          (fun () -> Client.stats c `Prometheus),
          fun () -> Client.close c )
    | None, Some ma -> (Server.addr_to_string ma, (fun () -> http_get ma "/metrics"), fun () -> ())
    | None, None ->
        Printf.eprintf "top: pass --connect ADDR or --metrics-addr ADDR\n";
        exit 2
  in
  let h_qps = ref [] and h_p99 = ref [] and h_hit = ref [] and h_lag = ref [] in
  let render prev cur dt =
    let fmt_opt f = function Some v -> f v | None -> "-" in
    let f1 v = Printf.sprintf "%.1f" v in
    let rate name = Option.map (fun d -> d /. dt) (Export.delta prev cur name) in
    let qps = rate "segdb_net_requests" in
    Option.iter (push_history h_qps) qps;
    let p50 = Export.window_percentile prev cur "segdb_net_request_ns" 0.50 in
    let p99 = Export.window_percentile prev cur "segdb_net_request_ns" 0.99 in
    Option.iter (fun v -> push_history h_p99 (v /. 1e3)) p99;
    let hit =
      match
        (Export.delta prev cur "segdb_cache_hits", Export.delta prev cur "segdb_cache_misses")
      with
      | Some h, Some m when h +. m > 0.0 -> Some (100.0 *. h /. (h +. m))
      | _ -> None
    in
    Option.iter (push_history h_hit) hit;
    let lag = max_with_prefix cur "segdb_repl_lag_records_" in
    Option.iter (push_history h_lag) lag;
    let role =
      match get cur "segdb_repl_is_primary" with
      | Some 1.0 -> "primary"
      | Some _ -> "replica"
      | None -> "?"
    in
    if not no_clear then print_string "\x1b[2J\x1b[H";
    Printf.printf "segdb top — %s — %s epoch %s lsn %s — window %.1fs\n" source role
      (fmt_opt (fun v -> Printf.sprintf "%.0f" v) (get cur "segdb_repl_epoch"))
      (fmt_opt (fun v -> Printf.sprintf "%.0f" v) (get cur "segdb_repl_last_lsn"))
      dt;
    let t = Table.create ~title:"serving" ~columns:[ "metric"; "now"; "trend" ] in
    Table.add_row t [ "queries/s"; fmt_opt f1 qps; spark h_qps ];
    Table.add_row t
      [
        "bytes in/s"; fmt_opt f1 (rate "segdb_net_bytes_in"); "";
      ];
    Table.add_row t
      [ "wal appends/s"; fmt_opt f1 (rate "segdb_wal_append"); "" ];
    Table.add_row t [ "p50 us"; fmt_opt (fun v -> f1 (v /. 1e3)) p50; "" ];
    Table.add_row t [ "p99 us"; fmt_opt (fun v -> f1 (v /. 1e3)) p99; spark h_p99 ];
    Table.add_row t [ "cache hit %"; fmt_opt f1 hit; spark h_hit ];
    Table.add_row t
      [ "queue depth"; fmt_opt f1 (get cur "segdb_exec_queue_len"); "" ];
    Table.add_row t
      [
        "pool busy";
        Printf.sprintf "%s/%s"
          (fmt_opt (fun v -> Printf.sprintf "%.0f" v) (get cur "segdb_exec_pool_busy"))
          (fmt_opt (fun v -> Printf.sprintf "%.0f" v) (get cur "segdb_exec_pool_workers"));
        "";
      ];
    Table.add_row t
      [ "connections"; fmt_opt (fun v -> Printf.sprintf "%.0f" v) (get cur "segdb_net_connections"); "" ];
    Table.add_row t [ "repl lag"; fmt_opt (fun v -> Printf.sprintf "%.0f" v) lag; spark h_lag ];
    Table.add_row t
      [
        "repl idle s";
        fmt_opt (fun v -> f1 (v /. 1e3)) (get cur "segdb_repl_ms_since_progress");
        "";
      ];
    Table.add_row t
      [
        "heap Mwords";
        fmt_opt (fun v -> Printf.sprintf "%.1f" (v /. 1e6)) (get cur "segdb_runtime_heap_words");
        "";
      ];
    Table.add_row t
      [ "minor gc/s"; fmt_opt f1 (rate "segdb_runtime_minor_collections"); "" ];
    Table.print t;
    flush stdout
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let scrape () =
    let body = fetch () in
    if find_sub body "observability disabled" <> None then
      Printf.eprintf "warning: observability is off on the server; most panels will be empty\n";
    (* parsing the exposition text (rather than a bespoke frame) is what
       lets --connect (the wire Stats frame) and --metrics-addr (HTTP
       /metrics) share one data path *)
    (Unix.gettimeofday (), Export.parse_prometheus body)
  in
  let rec loop prev rendered =
    if iterations > 0 && rendered >= iterations then 0
    else begin
      match scrape () with
      | exception (Failure m | Client.Error m) ->
          Printf.eprintf "top: scrape failed: %s\n" m;
          1
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "top: scrape failed: %s\n" (Unix.error_message e);
          1
      | at, cur ->
          let rendered =
            match prev with
            | Some (pat, p) ->
                render p cur (at -. pat);
                rendered + 1
            | None -> rendered
          in
          if iterations > 0 && rendered >= iterations then 0
          else begin
            Unix.sleepf interval_s;
            loop (Some (at, cur)) rendered
          end
    end
  in
  loop None 0

let top_interval_ms_t =
  Arg.(
    value & opt int 1000
    & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh interval between scrapes.")

let top_iterations_t =
  Arg.(
    value & opt int 0
    & info [ "iterations" ] ~docv:"N"
        ~doc:"Render $(docv) frames then exit (0 = run until interrupted).")

let top_no_clear_t =
  Arg.(
    value & flag
    & info [ "no-clear" ]
        ~doc:"Append frames instead of clearing the screen (for logs and tests).")

let top_metrics_addr_t =
  Arg.(
    value
    & opt (some addr_conv) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:"Scrape a server's HTTP $(b,/metrics) endpoint instead of the wire protocol.")

let top_cmd =
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "live dashboard over a running server: scrapes its metrics (the wire \
          $(i,stats) frame via $(b,--connect), or HTTP $(b,/metrics) via \
          $(b,--metrics-addr)), computes per-interval rates and windowed percentiles \
          client-side, and renders qps, latency, cache hit-rate, queue and pool \
          occupancy, replication lag and GC pressure with sparkline trends")
    Term.(
      const top $ connect_t $ top_metrics_addr_t $ top_interval_ms_t $ top_iterations_t
      $ top_no_clear_t)

(* ---------------- main ---------------- *)

let main_cmd =
  let doc = "segment database with vertical-segment-query indexes (EDBT'98 reproduction)" in
  Cmd.group (Cmd.info "segdb_cli" ~doc)
    [
      generate_cmd;
      stats_cmd;
      query_cmd;
      compare_cmd;
      batch_cmd;
      save_cmd;
      open_cmd;
      recover_cmd;
      scrub_cmd;
      repair_cmd;
      verify_cmd;
      ping_cmd;
      shutdown_cmd;
      promote_cmd;
      repl_status_cmd;
      insert_cmd;
      delete_cmd;
      slowlog_cmd;
      top_cmd;
    ]

let () =
  Failpoint.arm_from_env ();
  Obs.Control.configure_from_env ();
  Obs.Log.configure_from_env ();
  Obs.Slowlog.configure_from_env ();
  exit (Cmd.eval' main_cmd)
