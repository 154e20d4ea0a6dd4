(* segdb_server — the standalone serving binary.

   Serves one database (a text segment file or a snapshot, detected by
   magic) over the binary wire protocol on TCP or a Unix socket. The
   accept loop submits decoded frames to a persistent Segdb_exec pool
   (bounded admission, per-request deadlines checked down to each
   block fetch), each worker with a private read context;
   SIGTERM/SIGINT or a client shutdown frame drains gracefully.

     segdb_server roads.seg --addr 127.0.0.1:4090 --domains 4
     segdb_server roads.snap --addr unix:/tmp/segdb.sock

   Fault injection: SEGDB_FAILPOINTS is honoured, e.g.
     SEGDB_FAILPOINTS="net.write=torn@20" segdb_server roads.seg       *)

open Cmdliner
module Db = Segdb_core.Segdb
module Seg_file = Segdb_core.Seg_file
module Snapshot = Segdb_core.Snapshot
module Exec = Segdb_exec.Exec
module Server = Segdb_net.Server
module Obs = Segdb_obs
module Failpoint = Segdb_io.Failpoint

(* a file with the snapshot magic is reopened, anything else is parsed
   as a text segment file and indexed *)
let load_db ~backend ~block path =
  if Snapshot.is_snapshot path then Db.open_db path
  else Db.create ~backend ~block (Seg_file.load path)

let serve file addr backend block domains queue_depth deadline_ms no_obs slow_ms
    replica_of epoch idle_timeout_s metrics_addr =
  if (not no_obs) && not (Obs.Control.forced_off ()) then Obs.Control.enable ();
  Option.iter Obs.Slowlog.set_threshold_ms slow_ms;
  let db = load_db ~backend ~block file in
  let srv =
    Server.create ~domains ~queue_depth ~deadline_ms ~idle_timeout_s ?epoch ?replica_of
      ~db addr
  in
  Option.iter
    (fun ma ->
      Printf.printf "metrics on %s (/metrics, /healthz)\n%!"
        (Server.addr_to_string (Server.serve_metrics srv ma)))
    metrics_addr;
  let on_signal _ = Server.stop srv in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ | Sys_error _ -> ());
  let repl = Server.replication srv in
  Printf.printf
    "serving %s on %s as %s (epoch %d): backend %s, %d segments, pool of %d domains \
     (queue %d, deadline %dms)\n\
     %!"
    file
    (Server.addr_to_string (Server.bound_addr srv))
    (Segdb_net.Replication.role_name (Segdb_net.Replication.role repl))
    (Segdb_net.Replication.epoch repl)
    (Db.backend_name db) (Db.size db)
    (Exec.size (Server.pool srv))
    queue_depth deadline_ms;
  Server.run srv;
  Printf.printf "drained: %d requests served\n"
    (Obs.Metrics.value (Obs.Metrics.counter Obs.Metrics.default "net.requests"));
  0

let addr_conv =
  let parse s =
    match Server.addr_of_string s with Ok a -> Ok a | Error m -> Error (`Msg m)
  in
  Arg.conv (parse, Server.pp_addr)

let file_t =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Segment file or snapshot (detected by magic).")

let addr_t =
  Arg.(
    value
    & opt addr_conv (Server.Tcp ("127.0.0.1", 0))
    & info [ "addr"; "listen" ] ~docv:"ADDR"
        ~doc:
          "Listen address: $(i,HOST:PORT) or $(i,unix:PATH). Port 0 (the default) asks \
           the kernel for a free port; the bound address is printed on startup.")

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
    Format.pp_print_string ppf (List.find (fun (_, b') -> b' = b) Db.all_backends |> fst)
  in
  Arg.conv (parse, print)

let backend_t =
  Arg.(
    value
    & opt backend_conv `Solution2
    & info [ "backend" ] ~docv:"NAME" ~doc:"Index backend (for text segment files).")

(* a block below the index's minimum is a usage error naming the
   bound, not an uncaught exception *)
let block_conv =
  let lo = Segdb_core.Vs_index.min_block in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S: expected an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let block_t =
  Arg.(value & opt block_conv 64 & info [ "block"; "B" ] ~docv:"B" ~doc:"Items per disk block.")

let domains_t =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N" ~doc:"Worker domains answering queries.")

let queue_depth_t =
  Arg.(
    value & opt int 128
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Bound on queued requests; past it the server answers $(i,overloaded) instead \
           of buffering without limit.")

let deadline_ms_t =
  Arg.(
    value & opt int 5000
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request budget from the moment it is queued; a request still waiting past \
           it is answered $(i,deadline exceeded) without being executed (0 disables).")

let no_obs_t =
  Arg.(
    value & flag
    & info [ "no-obs" ]
        ~doc:
          "Leave observability off (it is enabled by default, so the $(i,stats) frame \
           has something to report).")

let slow_ms_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Record queries slower than $(docv) milliseconds in the slow-query log \
           (0 records every query; also settable via $(b,SEGDB_SLOW_MS)). Dump it \
           with $(b,segdb_cli slowlog --connect ADDR).")

let replica_of_t =
  Arg.(
    value
    & opt (some addr_conv) None
    & info [ "replica-of" ] ~docv:"ADDR"
        ~doc:
          "Start as a read-only replica of the primary at $(docv): subscribe to its WAL \
           stream, apply pushed records, catch up by snapshot when joining late or \
           after a partition. Writes are refused with $(i,not primary) until a \
           $(b,segdb_cli promote) turns this node into a primary at a fenced epoch.")

let epoch_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "epoch" ] ~docv:"N"
        ~doc:
          "Seed the replication fencing epoch (default: 1 for a primary, 0 for a \
           replica). Nodes refuse replication frames from a lower epoch.")

let idle_timeout_s_t =
  Arg.(
    value & opt float 0.
    & info [ "idle-timeout-s" ] ~docv:"S"
        ~doc:
          "Reap connections with no traffic and no in-flight requests for $(docv) \
           seconds (0 = never). Subscribed replicas are exempt.")

let metrics_addr_t =
  Arg.(
    value
    & opt (some addr_conv) None
    & info [ "metrics-addr" ] ~docv:"ADDR"
        ~doc:
          "Also serve HTTP monitoring endpoints on $(docv): $(b,/metrics) (Prometheus \
           exposition of every counter, gauge and histogram, gauges refreshed at \
           scrape time) and $(b,/healthz) (role, epoch, LSN, replication lag; 200 \
           healthy / 503 stalled).")

let cmd =
  Cmd.v
    (Cmd.info "segdb_server"
       ~doc:"serve a segment database over the binary wire protocol")
    Term.(
      const serve $ file_t $ addr_t $ backend_t $ block_t $ domains_t $ queue_depth_t
      $ deadline_ms_t $ no_obs_t $ slow_ms_t $ replica_of_t $ epoch_t $ idle_timeout_s_t
      $ metrics_addr_t)

let () =
  Failpoint.arm_from_env ();
  Obs.Control.configure_from_env ();
  Obs.Log.configure_from_env ();
  Obs.Slowlog.configure_from_env ();
  exit (Cmd.eval' cmd)
