(* segbench: drives one benchmark run against fresh segdb_servers.

     segbench run --workload lookup --seed 1 --seconds 10 --trace 0 \
       --server SEGDB_SERVER_EXE --nproc 2 --work DIR --trace-out FILE

   [run.py] builds this and starts it pinned to one CPU; every server
   (and, in a traced run, the in-process replay [inproc]) inherits that
   affinity. Human-readable lines come first; the last line of stdout
   is the JSON result. *)

module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec
module Client = Segdb_net.Client
module Server = Segdb_net.Server
module Wire = Segdb_net.Wire
module Trace = Segdb_obs.Trace
module Io_stats = Segdb_io.Io_stats
module Read_context = Segdb_io.Read_context
open Perfbench

let sprintf = Printf.sprintf

(* ---------------- metric catalogue ---------------- *)

let end_to_end =
  [
    ("query_p50_us", "us");
    ("query_p99_us", "us");
    ("write_p50_us", "us");
    ("write_p99_us", "us");
    ("ops_per_s", "1/s");
    ("server_cpu_us_per_op", "us");
    ("server_rss_mb", "MB");
    ("setup_s", "s");
  ]

(* what each metric should move and where it works hardest is in
   README.md *)
let per_layer =
  [
    ("core.query_us", "us");
    ("core.blocks_per_query", "blocks");
    ("core.cache_hit_ratio", "1");
    ("core.ids_per_query", "ids");
    ("core.commit_us", "us");
    ("core.commit_p99_us", "us");
    ("core.blocks_written_per_write", "blocks");
    ("core.index_blocks_per_kseg", "blocks");
    ("core.index_blocks_per_kseg_after", "blocks");
    ("core.open_s", "s");
    ("exec.request_us", "us");
    ("exec.request_p99_us", "us");
    ("exec.handoff_us", "us");
    ("wire.request_bytes", "B");
    ("wire.response_bytes", "B");
    ("wire.codec_us", "us");
    ("net.rtt_us", "us");
    ("net.outside_exec_us", "us");
    ("net.trace_overhead_us", "us");
    ("server.decode_us", "us");
    ("server.queue_wait_us", "us");
    ("server.service_us", "us");
    ("server.write_us", "us");
    ("server.ctx_switches_per_op", "count");
    ("server.preemptions_per_op", "count");
    ("server.io_syscalls_per_op", "count");
    ("server.minor_gcs_per_kop", "count");
    ("server.major_gcs_per_kop", "count");
    ("server.major_words_per_op", "words");
    ("obs.cpu_us_per_op", "us");
    ("client.cpu_us_per_op", "us");
  ]

(* ---------------- samples and spans ---------------- *)

(* growable int buffer: latencies in ns *)
module Buf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let us b = Array.init b.n (fun i -> float_of_int b.a.(i) /. 1e3)
end

(* Spans are kept in memory, one per layer call, keyed by op index (the
   event's request id is the index + 1, its domain the layer). *)
let core_dom = 1
let exec_dom = 2
let wire_dom = 3
let net_dom = 4

type spans = { mutable evs : Trace.event list; mutable seq : int }

let new_spans () = { evs = []; seq = 0 }

let span sp ~dom ~phase ~k ~t0 ~t1 ~blocks =
  sp.seq <- sp.seq + 1;
  sp.evs <-
    { Trace.seq = sp.seq; phase; depth = 0; t0_ns = t0; dur_ns = t1 - t0; blocks;
      request_id = k + 1; dom }
    :: sp.evs

let durations_us evs phase =
  List.filter_map
    (fun (e : Trace.event) -> if e.phase = phase then Some (float_of_int e.dur_ns /. 1e3) else None)
    evs
  |> Array.of_list

let p50 ~what xs = Pct.percentile_exn ~what ~p:0.5 xs
let p99 ~what xs = Pct.percentile_exn ~what ~p:0.99 xs

(* ---------------- the in-process replay ---------------- *)

(* [expected.(i mod length)] answers op [i] of a run: a read-only
   workload's answers cycle with its period, a churn run's cover every
   op it may reach. *)
type plan_file = { plan : Plan.t; expected : Plan.answer array; probe_expected : Plan.answer array }

let answer expected i = expected.(i mod Array.length expected)

let same_ids want got =
  let rec go i = function
    | [] -> i = Array.length want
    | x :: tl -> i < Array.length want && want.(i) = x && go (i + 1) tl
  in
  go 0 got

let check k ok = if not ok then failwith (sprintf "in-process replay: op %d answered wrongly" k)

(* Replays the measured ops through each layer's public functions with
   no server running: [Segdb] (one reader kept across queries and
   replaced after each write, as Exec's cache does), [Exec]
   (submit/await on a one-worker pool, writes inline as the accept loop
   does them) and [Wire] (both frames of every op). Observability is on,
   as in the shipped server. *)
let inproc ~plan_path ~snap ~out =
  let { plan; expected; probe_expected } : plan_file =
    In_channel.with_open_bin plan_path (fun ic -> Marshal.from_channel ic)
  in
  Segdb_obs.Control.enable ();
  let spec = plan.Plan.spec in
  let n = Array.length plan.ops in
  let last = spec.warmup + spec.replay in
  let sp = new_spans () in
  let open_s = ref [] in
  let opened () =
    let t0 = Clock.now_ns () in
    let db, mode = Db.open_db_mode snap in
    if mode <> Db.Rebuilt then failwith "snapshot restored an image; the server would rebuild";
    open_s := (float_of_int (Clock.now_ns () - t0) /. 1e9) :: !open_s;
    db
  in
  ignore (opened ());
  let per_kseg db = 1000. *. float_of_int (Db.block_count db) /. float_of_int (Db.size db) in
  (* Segdb *)
  let db = opened () in
  let blocks_loaded = per_kseg db in
  let r = ref (Db.reader db) in
  let reads = ref 0 and hits = ref 0 and misses = ref 0 and ids = ref 0 and queries = ref 0 in
  let written = ref 0 and commits = ref 0 in
  let commit ~k op want =
    let io0 = Io_stats.snapshot (Db.io db) in
    let t0 = Clock.now_ns () in
    let changed = Db.commit db (Plan.op_of_write op) in
    let t1 = Clock.now_ns () in
    let d = Io_stats.diff io0 (Io_stats.snapshot (Db.io db)) in
    check k (Plan.Changed changed = want);
    r := Db.reader db;
    (t0, t1, d.Io_stats.writes + d.Io_stats.allocs)
  in
  for i = 0 to last - 1 do
    let k = i mod n in
    match plan.ops.(k) with
    | Plan.Query q ->
        let rio = Db.reader_io !r in
        let b0 = Io_stats.reads rio and h0 = Read_context.cache_hits !r
        and m0 = Read_context.cache_misses !r in
        let t0 = Clock.now_ns () in
        let got = Db.query_ids_r db !r q in
        let t1 = Clock.now_ns () in
        check i (match answer expected i with Plan.Ids w -> same_ids w got | _ -> false);
        if i >= spec.warmup then begin
          let b = Io_stats.reads rio - b0 in
          incr queries;
          reads := !reads + b;
          hits := !hits + Read_context.cache_hits !r - h0;
          misses := !misses + Read_context.cache_misses !r - m0;
          ids := !ids + List.length got;
          span sp ~dom:core_dom ~phase:"core.query" ~k:i ~t0 ~t1 ~blocks:b
        end
    | (Plan.Insert _ | Plan.Delete _) as op ->
        let t0, t1, w = commit ~k:i op (answer expected i) in
        if i >= spec.warmup then begin
          incr commits;
          written := !written + w;
          span sp ~dom:core_dom ~phase:"core.commit" ~k:i ~t0 ~t1 ~blocks:w
        end
  done;
  Array.iteri
    (fun j op ->
      let t0, t1, w = commit ~k:(last + j) op probe_expected.(j) in
      incr commits;
      written := !written + w;
      span sp ~dom:core_dom ~phase:"core.commit" ~k:(last + j) ~t0 ~t1 ~blocks:w)
    plan.probe;
  let blocks_after = per_kseg db in
  (* Exec *)
  let db = opened () in
  let pool = Exec.create ~workers:1 () in
  for i = 0 to last - 1 do
    let k = i mod n in
    match plan.ops.(k) with
    | Plan.Query q ->
        let t0 = Clock.now_ns () in
        let outcome = Exec.await (Exec.submit pool db (Exec.request ~deadline_ms:5000 [| q |])) in
        let t1 = Clock.now_ns () in
        check i
          (match (outcome, answer expected i) with
          | Exec.Ok [| got |], Plan.Ids w -> same_ids w got
          | _ -> false);
        if i >= spec.warmup then span sp ~dom:exec_dom ~phase:"exec.request" ~k:i ~t0 ~t1 ~blocks:0
    | op -> check i (Plan.Changed (Db.commit db (Plan.op_of_write op)) = answer expected i)
  done;
  Exec.shutdown pool;
  (* Wire *)
  let req_bytes = ref 0 and resp_bytes = ref 0 and lsn = ref 0 in
  let roundtrip frame decode =
    let hdr = String.sub frame 0 Wire.header_bytes in
    match Wire.decode_header hdr with
    | Error e -> failwith (Wire.protocol_error_to_string e)
    | Ok (len, crc) -> (
        match Wire.check_payload ~crc (String.sub frame Wire.header_bytes len) with
        | Error e -> failwith (Wire.protocol_error_to_string e)
        | Ok payload -> (
            match decode payload with
            | Error e -> failwith (Wire.protocol_error_to_string e)
            | Ok v -> v))
  in
  for i = 0 to last - 1 do
    let k = i mod n in
    let req, resp =
      match (plan.ops.(k), answer expected i) with
      | Plan.Query q, Plan.Ids w ->
          (Wire.Query q, Wire.Ids { ids = Array.to_list w; complete = true; faults = [] })
      | Plan.Insert s, Plan.Changed changed ->
          incr lsn;
          (Wire.Insert s, Wire.Applied { lsn = !lsn; changed })
      | Plan.Delete s, Plan.Changed changed ->
          incr lsn;
          (Wire.Delete s, Wire.Applied { lsn = !lsn; changed })
      | _ -> invalid_arg "inproc: the answer does not fit the op"
    in
    let t0 = Clock.now_ns () in
    let f = Wire.encode_request req in
    let req' = roundtrip f Wire.decode_request in
    let g = Wire.encode_response resp in
    let resp' = roundtrip g Wire.decode_response in
    let t1 = Clock.now_ns () in
    check i (req' = req && resp' = resp);
    if i >= spec.warmup then begin
      req_bytes := !req_bytes + String.length f;
      resp_bytes := !resp_bytes + String.length g;
      span sp ~dom:wire_dom ~phase:"wire.codec" ~k:i ~t0 ~t1 ~blocks:0
    end
  done;
  let evs = sp.evs in
  let per_op x = float_of_int x /. float_of_int spec.replay in
  let commit_us = durations_us evs "core.commit" in
  let exec_us = durations_us evs "exec.request" in
  let metrics =
    [
      ("core.query_us", p50 ~what:"core.query_us" (durations_us evs "core.query"));
      ("core.blocks_per_query", float_of_int !reads /. float_of_int !queries);
      ("core.cache_hits", float_of_int !hits);
      ("core.cache_misses", float_of_int !misses);
      ("core.ids_per_query", float_of_int !ids /. float_of_int !queries);
      ("core.commit_us", p50 ~what:"core.commit_us" commit_us);
      ("core.commit_p99_us", p99 ~what:"core.commit_p99_us" commit_us);
      ("core.blocks_written_per_write", float_of_int !written /. float_of_int !commits);
      ("core.index_blocks_per_kseg", blocks_loaded);
      ("core.index_blocks_per_kseg_after", blocks_after);
      ("core.open_s", Pct.median (Array.of_list !open_s));
      ("exec.request_us", p50 ~what:"exec.request_us" exec_us);
      ("exec.request_p99_us", p99 ~what:"exec.request_p99_us" exec_us);
      ("wire.request_bytes", per_op !req_bytes);
      ("wire.response_bytes", per_op !resp_bytes);
      ("wire.codec_us", p50 ~what:"wire.codec_us" (durations_us evs "wire.codec"));
      ("core.queries", float_of_int !queries);
      ("core.commits", float_of_int !commits);
    ]
  in
  Out_channel.with_open_bin out (fun oc ->
      Marshal.to_channel oc ((metrics, evs) : (string * float) list * Trace.event list) [])

(* ---------------- the server process ---------------- *)

type ctx = {
  pf : plan_file;
  work : string;
  snap : string;
  server_exe : string;
  cpus : int list;  (** the CPUs client and server may run on, for the steal count *)
  window_s : float;  (** each server's timed window *)
}

(* Every child is killed and reaped on every way out, so a failed run
   cannot leave a pinned server behind. *)
let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let start ?(env = []) argv ~log =
  let fd name = Unix.openfile (log ^ name) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = fd ".out" and err = fd ".err" in
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
  in
  let pid =
    Unix.create_process_env argv.(0) argv (Array.of_list (env @ inherited)) Unix.stdin out err
  in
  Unix.close out;
  Unix.close err;
  live := pid :: !live;
  pid

type server = { pid : int; addr : Server.addr; log : string; spawned_ns : int }

let spawns = ref 0

let server_flags = [ "--domains"; "1" ]

let spawn ctx ?env flags =
  incr spawns;
  let log = Filename.concat ctx.work (sprintf "server%d" !spawns) in
  (* relative to the shared working directory: a socket path must stay
     under 108 bytes wherever the checkout lives *)
  let sock = Filename.concat ctx.work (sprintf "s%d.sock" !spawns) in
  let spawned_ns = Clock.now_ns () in
  let argv =
    Array.of_list ([ ctx.server_exe; ctx.snap; "--addr"; "unix:" ^ sock ] @ server_flags @ flags)
  in
  let pid = start ?env argv ~log in
  { pid; addr = Server.Unix_path sock; log; spawned_ns }

(* reaps [pid] if it has ended *)
let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) ->
      live := List.filter (( <> ) pid) !live;
      true

(* Polls until the server answers its first Ping; the time from spawn to
   that Pong is the set-up time. *)
let connect_when_up srv =
  let give_up = srv.spawned_ns + 120_000_000_000 in
  let rec go () =
    if exited srv.pid then
      failwith (sprintf "segdb_server exited before answering; see %s.err" srv.log);
    if Clock.now_ns () > give_up then failwith "segdb_server did not answer within 120 s";
    match Client.connect ~retries:0 ~timeout_ms:10_000 srv.addr with
    | c -> (
        match Client.ping c with
        | () -> c
        | exception (Client.Error _ | Unix.Unix_error _) ->
            Client.close c;
            go ())
    | exception (Client.Error _ | Unix.Unix_error _) ->
        Unix.sleepf 0.001;
        go ()
  in
  let c = go () in
  (c, float_of_int (Clock.now_ns () - srv.spawned_ns) /. 1e9)

let stop srv client =
  (try Client.shutdown client with Client.Error _ | Unix.Unix_error _ -> ());
  Client.close client;
  let give_up = Clock.now_ns () + 10_000_000_000 in
  while (not (exited srv.pid)) && Clock.now_ns () < give_up do
    Unix.sleepf 0.002
  done;
  if List.mem srv.pid !live then begin
    prerr_endline "segbench: server did not drain within 10 s; killed";
    reap srv.pid
  end

(* ---------------- the closed loop ---------------- *)

type tally = {
  qlat : Buf.t;
  wlat : Buf.t;
  mutable measure : bool;
  mutable attempted : int;
  mutable answered : int;  (** ops that got an answer, right or wrong *)
  mutable failed : int;
  mutable wrong : int;
  mutable lsn : int;  (** writes this server has committed *)
  mutable first_failure : string;
  spans : spans option;
}

let new_tally spans =
  { qlat = Buf.create (); wlat = Buf.create (); measure = false; attempted = 0; answered = 0;
    failed = 0; wrong = 0; lsn = 0; first_failure = ""; spans }

let fail t why =
  t.failed <- t.failed + 1;
  if t.first_failure = "" then t.first_failure <- why

let wrong t why =
  t.wrong <- t.wrong + 1;
  fail t why

let run_op client t ~k op want =
  t.attempted <- t.attempted + 1;
  let t0 = Clock.now_ns () in
  let answered buf phase =
    let t1 = Clock.now_ns () in
    t.answered <- t.answered + 1;
    if t.measure then begin
      Buf.add buf (t1 - t0);
      match t.spans with
      | Some sp -> span sp ~dom:net_dom ~phase ~k ~t0 ~t1 ~blocks:0
      | None -> ()
    end
  in
  match (op, want) with
  | Plan.Query q, Plan.Ids want -> (
      match Client.query client q with
      | { Db.Degraded.value; complete = true; _ } ->
          answered t.qlat "net.query";
          if not (same_ids want value) then wrong t (sprintf "op %d: wrong ids" k)
      | { Db.Degraded.faults; _ } ->
          fail t (sprintf "op %d: incomplete answer (%s)" k (String.concat "; " faults))
      | exception Client.Error m -> fail t (sprintf "op %d: %s" k m)
      | exception Unix.Unix_error (e, _, _) -> fail t (sprintf "op %d: %s" k (Unix.error_message e)))
  | (Plan.Insert s | Plan.Delete s), Plan.Changed want -> (
      t.lsn <- t.lsn + 1;
      let call = match op with Plan.Insert _ -> Client.insert | _ -> Client.delete in
      match call client s with
      | lsn, changed ->
          answered t.wlat "net.write";
          if lsn <> t.lsn || changed <> want then
            wrong t
              (sprintf "op %d: Applied {lsn = %d; changed = %b}, expected {lsn = %d; changed = %b}"
                 k lsn changed t.lsn want)
      | exception Client.Error m -> fail t (sprintf "op %d: %s" k m)
      | exception Unix.Unix_error (e, _, _) -> fail t (sprintf "op %d: %s" k (Unix.error_message e)))
  | _ -> invalid_arg "run_op: the answer does not fit the op"

(* Runs ops [from], [from + 1], ... until [count] ran, the clock
   passed [until_ns] or the ops with answers ran out; returns the next
   op index. *)
let drive client t ~ops ~expected ~cyclic ~from ~count ~until_ns =
  let limit = if cyclic then max_int else Array.length expected in
  let i = ref from in
  while !i - from < count && !i < limit && Clock.now_ns () < until_ns do
    run_op client t ~k:!i ops.(!i mod Array.length ops) (answer expected !i);
    incr i
  done;
  !i

type window = {
  setup_s : float;
  ops : int;  (** ops answered in the timed window *)
  elapsed_s : float;
  server : Proc.sample;  (** deltas over the window *)
  hwm_kb : int;
  steal : float;  (** share of the window's CPU ticks the host stole *)
  client_cpu_s : float;
  stats : (string * string) option;  (** stats frames before and after the window *)
  served : int;  (** every op this server answered *)
  ran_out : bool;  (** the window ended because the ops with answers did *)
  log : string;
  tally : tally;
}

(* One fresh server: warm-up, the timed window, then (read-only
   workloads) the write probe. *)
let served ctx ?env ?(flags = []) ?spans ~stats ~probe () =
  let { plan; expected; probe_expected } = ctx.pf in
  let cyclic = not plan.spec.churn in
  let srv = spawn ctx ?env flags in
  let client, setup_s = connect_when_up srv in
  let t = new_tally spans in
  Fun.protect
    ~finally:(fun () -> stop srv client)
    (fun () ->
      let next =
        drive client t ~ops:plan.ops ~expected ~cyclic ~from:0 ~count:plan.spec.warmup
          ~until_ns:max_int
      in
      let st0 = if stats then Some (Client.stats client `Json) else None in
      let p0 = Proc.sample srv.pid and c0 = Unix.times () and s0 = Proc.steal ctx.cpus in
      let a0 = t.answered in
      t.measure <- true;
      let w0 = Clock.now_ns () in
      let last =
        drive client t ~ops:plan.ops ~expected ~cyclic ~from:next ~count:max_int
          ~until_ns:(w0 + int_of_float (ctx.window_s *. 1e9))
      in
      let w1 = Clock.now_ns () in
      let p1 = Proc.sample srv.pid and c1 = Unix.times () and s1 = Proc.steal ctx.cpus in
      let ops = t.answered - a0 in
      let stats = Option.map (fun s0 -> (s0, Client.stats client `Json)) st0 in
      if probe then
        ignore
          (drive client t ~ops:plan.probe ~expected:probe_expected ~cyclic:false ~from:0
             ~count:max_int ~until_ns:max_int);
      t.measure <- false;
      {
        setup_s;
        ops;
        elapsed_s = float_of_int (w1 - w0) /. 1e9;
        server = Proc.diff p0 p1;
        hwm_kb = Proc.hwm_kb srv.pid;
        steal = float_of_int (fst s1 - fst s0) /. float_of_int (max 1 (snd s1 - snd s0));
        client_cpu_s = Unix.(c1.tms_utime +. c1.tms_stime -. c0.tms_utime -. c0.tms_stime);
        stats;
        served = t.answered;
        ran_out = (not cyclic) && last >= Array.length expected;
        log = srv.log;
        tally = t;
      })

(* a server that only starts and stops: its log prices set-up *)
let setup_only ctx ?env () =
  let srv = spawn ctx ?env [] in
  stop srv (fst (connect_when_up srv));
  srv.log

(* ---------------- reading the server ---------------- *)

let find_from s i sub =
  let n = String.length s and m = String.length sub in
  let rec go j = if j + m > n then None else if String.sub s j m = sub then Some j else go (j + 1) in
  go i

let number_at s i =
  let j = ref i in
  while !j < String.length s && String.contains "-+.0123456789eE" s.[!j] do incr j done;
  float_of_string (String.sub s i (!j - i))

(* a histogram's p50 (ns) or a gauge, from the server's JSON stats *)
let stat_p50 json hist =
  match find_from json 0 (sprintf "\"%s\": {" hist) with
  | None -> failwith (sprintf "stats frame has no histogram %s" hist)
  | Some i -> (
      match find_from json i "\"p50\": " with
      | Some j -> number_at json (j + 7)
      | None -> failwith (sprintf "stats frame: %s has no p50" hist))

let stat_gauge json name =
  let key = sprintf "\"%s\": " name in
  match find_from json 0 key with
  | Some i -> number_at json (i + String.length key)
  | None -> failwith (sprintf "stats frame has no gauge %s" name)

(* from the runtime's exit summary (OCAMLRUNPARAM=v=0x400) *)
let major_words log =
  match Proc.field (Proc.read_file (log ^ ".err")) "major_words" with
  | 0 -> failwith (sprintf "%s.err holds no GC summary" log)
  | w -> float_of_int w

(* ---------------- runs ---------------- *)

let per_op w x = x /. float_of_int w.ops
let cpu_us_per_op w = per_op w (float_of_int w.server.Proc.cpu_ns /. 1e3)

(* A run is [servers] fresh servers, each measured for an equal share
   of the run's seconds. The latency percentiles pool the windows'
   samples; the other metrics are the median of their per-window
   values, setup_s of the spawn-to-Pong times. Each window's steal (the
   share of its CPU ticks the hypervisor gave to other guests) is
   printed beside it, to tell host noise from a slower program. *)
let servers = 8

let untraced ctx =
  let spec = ctx.pf.plan.spec in
  let ws = List.init servers (fun _ -> served ctx ~stats:false ~probe:(not spec.churn) ()) in
  let measure w =
    [
      ("query_p50_us", Result.value (Pct.percentile ~p:0.5 (Buf.us w.tally.qlat)) ~default:nan);
      ("ops_per_s", float_of_int w.ops /. w.elapsed_s);
      ("server_cpu_us_per_op", cpu_us_per_op w);
      ("server_rss_mb", float_of_int w.hwm_kb /. 1024.);
      ("setup_s", w.setup_s);
    ]
  in
  let each = List.map measure ws in
  List.iteri
    (fun i (w, m) ->
      Printf.printf "server %d: steal=%.4f %s\n" (i + 1) w.steal
        (String.concat " " (List.map (fun (n, v) -> sprintf "%s=%.4g" n v) m)))
    (List.combine ws each);
  let median_of n = Pct.median (Array.of_list (List.map (List.assoc n) each)) in
  let pooled buf = Array.concat (List.map (fun w -> Buf.us (buf w.tally)) ws) in
  let q = pooled (fun t -> t.qlat) and wr = pooled (fun t -> t.wlat) in
  let metrics =
    List.map
      (fun (n, _) ->
        ( n,
          match n with
          | "query_p50_us" -> p50 ~what:n q
          | "query_p99_us" -> p99 ~what:n q
          | "write_p50_us" -> p50 ~what:n wr
          | "write_p99_us" -> p99 ~what:n wr
          | _ -> median_of n ))
      end_to_end
  in
  let total f = List.fold_left (fun a w -> a + f w) 0 ws in
  let samples =
    [
      ("servers", List.length ws);
      ("queries", total (fun w -> w.tally.qlat.Buf.n));
      ("min_queries_per_server", List.fold_left (fun a w -> min a w.tally.qlat.Buf.n) max_int ws);
      ("writes", total (fun w -> w.tally.wlat.Buf.n));
      ("window_ops", total (fun w -> w.ops));
    ]
  in
  if List.exists (fun w -> w.ran_out) ws then
    print_endline "note: a window ended early: every op with an answer ran";
  (metrics, List.map (fun w -> w.tally) ws, samples, [])

let traced ctx ~trace_out =
  let plan_path = Filename.concat ctx.work "plan.bin" in
  let out = Filename.concat ctx.work "inproc.bin" in
  Out_channel.with_open_bin plan_path (fun oc -> Marshal.to_channel oc ctx.pf []);
  (* the in-process replay, on the servers' CPU while no server runs *)
  let pid =
    start
      [| Sys.executable_name; "inproc"; "--plan"; plan_path; "--snap"; ctx.snap; "--out"; out |]
      ~log:(Filename.concat ctx.work "inproc")
  in
  let status = snd (Unix.waitpid [] pid) in
  live := List.filter (( <> ) pid) !live;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ ->
      failwith (sprintf "in-process replay failed: %s" (Proc.read_file (Filename.concat ctx.work "inproc.err"))));
  let core, core_spans =
    (In_channel.with_open_bin out Marshal.from_channel : (string * float) list * Trace.event list)
  in
  let gc_env = [ "OCAMLRUNPARAM=v=0x400" ] in
  let setup_log = setup_only ctx ~env:gc_env () in
  let u = served ctx ~stats:false ~probe:false () in
  let sp = new_spans () in
  let w = served ctx ~env:gc_env ~spans:sp ~stats:true ~probe:false () in
  let nobs = served ctx ~flags:[ "--no-obs" ] ~stats:false ~probe:false () in
  let s0, s1 = Option.get w.stats in
  let hist h = stat_p50 s1 h /. 1e3 in
  let gauge_delta g = stat_gauge s1 g -. stat_gauge s0 g in
  let q_traced = Buf.us w.tally.qlat in
  let rtt = p50 ~what:"net.rtt_us" q_traced in
  let served_metrics =
    [
      ("net.rtt_us", rtt);
      ("net.untraced_query_p50_us", p50 ~what:"untraced query_p50_us" (Buf.us u.tally.qlat));
      ("server.decode_us", hist "net.decode.ns");
      ("server.queue_wait_us", hist "exec.queue_wait.ns");
      ("server.service_us", hist "exec.service.ns");
      ("server.write_us", hist "net.write.ns");
      ( "server.ctx_switches_per_op",
        per_op w (float_of_int (w.server.voluntary + w.server.involuntary)) );
      ("server.preemptions_per_op", per_op w (float_of_int w.server.involuntary));
      ("server.io_syscalls_per_op", per_op w (float_of_int w.server.syscalls));
      ("server.minor_gcs_per_kop", 1000. *. per_op w (gauge_delta "runtime.minor_collections"));
      ("server.major_gcs_per_kop", 1000. *. per_op w (gauge_delta "runtime.major_collections"));
      ("server.major_words", major_words w.log);
      ("server.setup_major_words", major_words setup_log);
      ("server.ops", float_of_int w.served);
      ("server.cpu_us_per_op", cpu_us_per_op u);
      ("server.no_obs_cpu_us_per_op", cpu_us_per_op nobs);
      ("client.cpu_us_per_op", per_op w (w.client_cpu_s *. 1e6));
    ]
  in
  let metrics = Derived.apply (core @ served_metrics) in
  (* the trace file: every layer's spans for the first ops measured *)
  let spec = ctx.pf.plan.spec in
  let shown = spec.warmup + 2048 in
  let evs = List.filter (fun (e : Trace.event) -> e.request_id <= shown) (core_spans @ sp.evs) in
  Out_channel.with_open_bin trace_out (fun oc ->
      output_string oc (Segdb_obs.Export.trace_json evs));
  let samples =
    [
      ("replayed_queries", int_of_float (List.assoc "core.queries" core));
      ("replayed_commits", int_of_float (List.assoc "core.commits" core));
      ("traced_window_ops", w.ops);
      ("traced_queries", Array.length q_traced);
      ("untraced_window_ops", u.ops);
      ("no_obs_window_ops", nobs.ops);
      ("spans_in_memory", List.length core_spans + List.length sp.evs);
      ("spans_written", List.length evs);
    ]
  in
  (metrics, [ u.tally; w.tally; nobs.tally ], samples, [ ("trace_file", trace_out) ])

(* ---------------- output ---------------- *)

(* the shortest decimal that reads back as exactly [v] *)
let json_num v =
  if not (Float.is_finite v) then failwith "a metric is not a finite number";
  if Float.is_integer v && Float.abs v < 1e15 then sprintf "%.0f" v
  else
  let rec shortest p =
    let c = sprintf "%.*g" p v in
    if p >= 17 || float_of_string c = v then c else shortest (p + 1)
  in
  shortest 1

let json_str s = "\"" ^ String.escaped s ^ "\""

let run ~workload ~seed ~seconds ~trace ~server_exe ~nproc ~work ~trace_out =
  let spec =
    match Plan.find workload with
    | Some s -> s
    | None -> failwith (sprintf "unknown workload %S" workload)
  in
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t_prep = Clock.now_ns () in
  let plan = Plan.make spec ~seed in
  let snap = Filename.concat work "db.snap" in
  Plan.write_snapshot plan snap;
  (* the answers, computed before any timing: by replaying the same ops
     on a database opened from the same snapshot *)
  let db = Db.open_db snap in
  let blocks = Db.block_count db in
  let period = Array.length plan.ops in
  (* a traced run serves three windows of half the seconds each *)
  let window_s = if trace then Float.max 1. (seconds /. 2.) else seconds /. float_of_int servers in
  let expected = Plan.expect db plan.ops ~count:(Plan.answered spec ~seconds:window_s ~period) in
  let probe_expected = Plan.expect db plan.probe ~count:(Array.length plan.probe) in
  let divergent = if spec.churn then Some (Plan.divergent plan expected) else None in
  let prep_s = float_of_int (Clock.now_ns () - t_prep) /. 1e9 in
  let cpu_list, cpus = Proc.allowed_cpus () in
  let ctx = { pf = { plan; expected; probe_expected }; work; snap; server_exe; cpus; window_s } in
  let metrics, tallies, samples, extra =
    if trace then traced ctx ~trace_out else untraced ctx
  in
  let attempted = List.fold_left (fun a t -> a + t.attempted) 0 tallies in
  let failed = List.fold_left (fun a t -> a + t.failed) 0 tallies in
  let wrong = List.fold_left (fun a t -> a + t.wrong) 0 tallies in
  List.iter
    (fun t -> if t.first_failure <> "" then Printf.printf "first failure: %s\n" t.first_failure)
    tallies;
  (match divergent with
  | Some (bad, compared) when bad > 0 ->
      Printf.printf
        "note: %d of the first period's %d queries answer differently on a scan of the live \
         segments; the server is checked against the in-process Solution 2 engine, which shares \
         that defect\n"
        bad compared
  | _ -> ());
  let info =
    [
      ("workload", json_str workload);
      ("seed", string_of_int seed);
      ("seconds", json_num seconds);
      ("trace", string_of_bool trace);
      ("nproc", json_str nproc);
      ("cpus", json_str cpu_list);
      ( "server_flags",
        json_str (String.concat " " ("SNAPSHOT --addr unix:PATH" :: server_flags)) );
      ("loaded_segments", string_of_int Plan.loaded);
      ("held_out_segments", string_of_int Plan.held_out);
      ("snapshot_bytes", string_of_int (Unix.stat snap).Unix.st_size);
      ("index_blocks", string_of_int blocks);
      ("cache_blocks", string_of_int spec.cache_blocks);
      ("period_ops", string_of_int (Array.length plan.ops));
      ("probe_writes", string_of_int (Array.length plan.probe));
      ("prep_s", json_num prep_s);
      ("fail_ratio", json_num (float_of_int failed /. float_of_int (max 1 attempted)));
    ]
    @ (match divergent with
      | Some (bad, compared) ->
          [ ("oracle_divergent_queries", string_of_int bad);
            ("oracle_compared_queries", string_of_int compared) ]
      | None -> [])
    @ List.map (fun (k, v) -> (k, string_of_int v)) samples
    @ List.map (fun (k, v) -> (k, json_str v)) extra
  in
  Printf.printf "info {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> sprintf "%s: %s" (json_str k) v) info));
  let declared =
    if trace then per_layer else end_to_end
  in
  let lookup name =
    match List.assoc_opt name metrics with
    | Some v -> v
    | None -> failwith (sprintf "metric %s was not measured" name)
  in
  if trace then begin
    Printf.printf "\n%-34s %12s %s\n" "per-layer metric" "value" "unit";
    List.iter (fun (n, u) -> Printf.printf "%-34s %12.4f %s\n" n (lookup n) u) per_layer;
    Printf.printf "%-34s %12.4f %s\n" "core.query_us / net.rtt_us"
      (lookup "core.query_us" /. lookup "net.rtt_us") "1";
    List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) extra
  end
  else begin
    Printf.printf "\n%-22s %12s %s\n" "end-to-end metric" "value" "unit";
    List.iter (fun (n, u) -> Printf.printf "%-22s %12.4f %s\n" n (lookup n) u) end_to_end;
    Printf.printf "%-22s %12.4f %s\n" "fail_ratio"
      (float_of_int failed /. float_of_int (max 1 attempted)) "1"
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (wrong = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (n, u) ->
            sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str n) (json_num (lookup n)) (json_str u))
          declared));
  if wrong > 0 then exit 1

(* ---------------- command line ---------------- *)

let () =
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)) with _ -> ())
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: tl when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) tl
    | [] -> acc
    | x :: _ -> failwith (sprintf "unexpected argument %S" x)
  in
  let main () =
    match args with
    | "inproc" :: rest ->
        let o = opts [] rest in
        let get k = List.assoc k o in
        inproc ~plan_path:(get "--plan") ~snap:(get "--snap") ~out:(get "--out")
    | "run" :: rest ->
        let o = opts [] rest in
        let get k =
          match List.assoc_opt k o with Some v -> v | None -> failwith ("missing " ^ k)
        in
        run ~workload:(get "--workload") ~seed:(int_of_string (get "--seed"))
          ~seconds:(float_of_string (get "--seconds"))
          ~trace:(get "--trace" = "1") ~server_exe:(get "--server") ~nproc:(get "--nproc")
          ~work:(get "--work") ~trace_out:(get "--trace-out")
    | _ -> failwith "usage: segbench (run|inproc) --option value ..."
  in
  match main () with
  | () -> ()
  | exception Failure m ->
      prerr_endline ("segbench: " ^ m);
      exit 2
