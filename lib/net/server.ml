module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec
module Failpoint = Segdb_io.Failpoint
module Metrics = Segdb_obs.Metrics
module Control = Segdb_obs.Control
module Trace = Segdb_obs.Trace
module Export = Segdb_obs.Export
module Log = Segdb_obs.Log
module Slowlog = Segdb_obs.Slowlog

(* ---------------- addresses ---------------- *)

type addr = Tcp of string * int | Unix_path of string

let addr_of_string s =
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    Result.Ok (Unix_path (String.sub s 5 (String.length s - 5)))
  else if String.contains s '/' then Result.Ok (Unix_path s)
  else
    match String.rindex_opt s ':' with
    | None -> Result.Error (Printf.sprintf "%S: expected HOST:PORT or unix:PATH" s)
    | Some i -> (
        let host = String.sub s 0 i and port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 ->
            Result.Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Result.Error (Printf.sprintf "%S: bad port" s))

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  | Unix_path p -> "unix:" ^ p

let pp_addr ppf a = Format.pp_print_string ppf (addr_to_string a)

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> raise (Unix.Unix_error (Unix.EINVAL, "getaddrinfo", host)))
      in
      Unix.ADDR_INET (ip, port)

let dial addr =
  let sa = sockaddr_of addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd sa;
     match addr with
     | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
     | Unix_path _ -> ()
   with e ->
     (try Unix.close fd with Unix.Unix_error (_, _, _) -> ());
     raise e);
  fd

(* a stale socket from a dead server; a live one fails at bind *)
let unlink_stale = function
  | Unix_path p when Sys.file_exists p && (Unix.stat p).Unix.st_kind = Unix.S_SOCK ->
      Unix.unlink p
  | _ -> ()

(* ---------------- connections ---------------- *)

(* A subscribed replica's cursor: the LSN up to which records have been
   pushed down this connection (acknowledged LSNs live in the stream's
   ack table, keyed by peer). *)
type sub = { mutable sent_lsn : int }

type conn = {
  fd : Unix.file_descr;
  peer : string;
  inbox : Wire.Inbox.t;  (** bytes received, not yet framed (accept loop only) *)
  outbox : Wire.Outbox.t;  (** the response buffers, used under [wlock] *)
  wlock : Mutex.t;  (** serializes frame writes (pool workers + accept loop) *)
  pending : int Atomic.t;  (** submitted requests still owing a response *)
  closing : bool Atomic.t;  (** reaped by the accept loop once [pending] drains *)
  mutable last_active : int;  (** [Trace.now_ns] of the last read, for idle reaping *)
  mutable sub : sub option;  (** a subscribed replica (exempt from reaping) *)
}

(* The server owns no execution machinery of its own: queueing,
   admission control, worker domains, deadlines and per-worker readers
   all live in [Exec]. What is left here is purely the socket side —
   accept, frame, dispatch, respond — plus the replication stream
   state and the reader/writer gate that serializes mutations against
   served queries. *)
type t = {
  db : Db.t;
  lfd : Unix.file_descr;
  bound : addr;
  deadline_ms : int;  (** 0 disables *)
  idle_timeout_s : float;  (** 0 disables *)
  health_stall_s : float;  (** replica staleness before /healthz turns 503 *)
  pool : Exec.t;
  repl : Replication.t;
  gate : Replication.Gate.t;
  mutable tail : Replication.tail option;  (** the replica's subscription loop *)
  stopping : bool Atomic.t;
  killed : bool Atomic.t;  (** abrupt death requested — no graceful drain *)
  mutable conns : conn list;  (** owned by the accept-loop domain *)
  live_conns : int Atomic.t;  (** |conns|, readable off the accept domain *)
  mutable next_conn : int;
  mutable http : Http.t option;  (** the monitoring exporter, if enabled *)
  mutable metrics_bound_ : addr option;
  mutable runner : unit Domain.t option;
  (* metric handles, resolved once *)
  m_requests : Metrics.counter;
  m_bytes_in : Metrics.counter;
  m_bytes_out : Metrics.counter;
}

let create ?(domains = 2) ?(queue_depth = 128) ?(deadline_ms = 5000) ?(idle_timeout_s = 0.)
    ?(health_stall_s = 3.0) ?epoch ?replica_of ~db addr =
  let sa = sockaddr_of addr in
  unlink_stale addr;
  let lfd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     (match addr with Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true | Unix_path _ -> ());
     Unix.bind lfd sa;
     Unix.listen lfd 64
   with e ->
     Unix.close lfd;
     raise e);
  let bound =
    match (addr, Unix.getsockname lfd) with
    | Tcp (h, _), Unix.ADDR_INET (_, p) -> Tcp (h, p)
    | a, _ -> a
  in
  let reg = Metrics.default in
  let role =
    match replica_of with
    | Some _ -> Replication.Replica
    | None -> Replication.Primary
  in
  let repl = Replication.create ~role ?epoch () in
  let gate = Replication.Gate.create () in
  let t =
    {
      db;
      lfd;
      bound;
      deadline_ms = max 0 deadline_ms;
      idle_timeout_s = Float.max 0. idle_timeout_s;
      health_stall_s = Float.max 0.001 health_stall_s;
      pool = Exec.create ~queue_depth:(max 0 queue_depth) ~workers:(max 1 domains) ();
      repl;
      gate;
      tail = None;
      stopping = Atomic.make false;
      killed = Atomic.make false;
      conns = [];
      live_conns = Atomic.make 0;
      next_conn = 0;
      http = None;
      metrics_bound_ = None;
      runner = None;
      m_requests = Metrics.counter reg "net.requests";
      m_bytes_in = Metrics.counter reg "net.bytes_in";
      m_bytes_out = Metrics.counter reg "net.bytes_out";
    }
  in
  (match replica_of with
  | None -> ()
  | Some upstream ->
      t.tail <-
        Some
          (Replication.start_tail ~connect:(fun () -> dial upstream) ~gate ~db ~stream:repl ()));
  t

let bound_addr t = t.bound
let pool t = t.pool
let replication t = t.repl
let stop t = Atomic.set t.stopping true

let kill t =
  Atomic.set t.killed true;
  Atomic.set t.stopping true

(* ---------------- responses ---------------- *)

(* Encoded and written under the connection's lock, from its reused
   buffers. A failed write means the peer is gone: mark the connection
   for reaping rather than raising into whoever answered. *)
let respond t conn resp =
  Mutex.protect conn.wlock @@ fun () ->
  let t0 = if Control.enabled () then Trace.now_ns () else 0 in
  match Wire.Outbox.send conn.outbox conn.fd resp with
  | n ->
      if t0 <> 0 then begin
        Metrics.add t.m_bytes_out n;
        Metrics.observe Metrics.default "net.write.ns" (Trace.now_ns () - t0)
      end
  | exception Unix.Unix_error (_, _, _) -> Atomic.set conn.closing true

(* ---------------- request execution (via the engine) ---------------- *)

let obs_off_note = "observability disabled (set SEGDB_OBS=1 or serve without --no-obs)"

(* Two servers in one process share [Metrics.default]; publishing and
   rendering under one lock keeps a scrape from rendering the other
   node's gauges. *)
let scrape_mu = Mutex.create ()

(* This node's serving and replication standing, published by the node
   that answers the scrape. *)
let publish_gauges t =
  let set name v = Metrics.set_gauge (Metrics.gauge Metrics.default name) v in
  let lsn = Replication.lsn t.repl in
  set "net.connections" (Atomic.get t.live_conns);
  set "exec.pool_busy" (Exec.busy t.pool);
  set "exec.pool_workers" (Exec.size t.pool);
  set "exec.queue_len" (Exec.queued t.pool);
  set "repl.epoch" (Replication.epoch t.repl);
  set "repl.last_lsn" lsn;
  set "repl.is_primary" (if Replication.role t.repl = Replication.Primary then 1 else 0);
  set "repl.ms_since_progress"
    (int_of_float (Replication.seconds_since_progress t.repl *. 1e3));
  List.iter
    (fun (peer, acked) -> set ("repl.lag_records." ^ peer) (max 0 (lsn - acked)))
    (Replication.acks t.repl)

let stats_payload t fmt =
  let reg = Metrics.default in
  Mutex.protect scrape_mu @@ fun () ->
  if Control.enabled () then begin
    Metrics.refresh_gauges ();
    publish_gauges t
  end;
  match fmt with
  | `Text ->
      if Control.enabled () then Export.text reg
      else obs_off_note ^ "\n\n" ^ Export.text reg
  | `Json -> Export.json reg
  | `Prometheus ->
      let body = Export.prometheus ~labels:[ ("addr", addr_to_string t.bound) ] reg in
      if Control.enabled () then body else "# " ^ obs_off_note ^ "\n" ^ body

(* The stream only knows acknowledged LSNs; the per-connection push
   cursors live on this domain's [conn] records. Runs on the accept
   loop (both wire dispatch and the HTTP handler do), so reading
   [t.conns] needs no lock. *)
let repl_status_enriched t =
  let st = Replication.status t.repl in
  let sent_of peer =
    List.find_map
      (fun c ->
        match c.sub with
        | Some s when c.peer = peer && not (Atomic.get c.closing) -> Some s.sent_lsn
        | _ -> None)
      t.conns
  in
  {
    st with
    Wire.peers =
      List.map
        (fun (p : Wire.repl_peer) ->
          match sent_of p.Wire.peer with
          | Some sent -> { p with Wire.sent_lsn = sent }
          | None -> p)
        st.Wire.peers;
  }

(* ---------------- the monitoring endpoints ---------------- *)

let healthz t =
  let st = repl_status_enriched t in
  let progress_s = Replication.seconds_since_progress t.repl in
  let stopping = Atomic.get t.stopping in
  let stalled = st.Wire.role = "replica" && progress_s > t.health_stall_s in
  let state = if stopping then "stopping" else if stalled then "stalled" else "ok" in
  let b = Buffer.create 256 in
  Printf.bprintf b
    "{\"status\":%S,\"role\":%S,\"epoch\":%d,\"lsn\":%d,\"seconds_since_progress\":%.3f,\"queue_depth\":%d,\"pool_busy\":%d,\"pool_workers\":%d,\"connections\":%d,\"lag\":{"
    state st.Wire.role st.Wire.epoch st.Wire.lsn progress_s (Exec.queued t.pool)
    (Exec.busy t.pool) (Exec.size t.pool)
    (Atomic.get t.live_conns);
  List.iteri
    (fun i { Wire.peer; acked_lsn; _ } ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%d" peer (max 0 (st.Wire.lsn - acked_lsn)))
    st.Wire.peers;
  Buffer.add_string b "}}\n";
  let status = if stopping || stalled then 503 else 200 in
  { Http.status; content_type = "application/json"; body = Buffer.contents b }

let http_handler t path =
  match path with
  | "/metrics" ->
      { Http.status = 200; content_type = "text/plain; version=0.0.4";
        body = stats_payload t `Prometheus }
  | "/healthz" -> healthz t
  | _ ->
      { Http.status = 404; content_type = "application/json";
        body = Printf.sprintf "{\"error\":\"no such endpoint %s\"}\n" path }

let serve_metrics t addr =
  unlink_stale addr;
  let h = Http.create ~handler:(http_handler t) (sockaddr_of addr) in
  let bound =
    match (addr, Http.bound h) with
    | Tcp (host, _), Unix.ADDR_INET (_, p) -> Tcp (host, p)
    | a, _ -> a
  in
  t.http <- Some h;
  t.metrics_bound_ <- Some bound;
  Log.info ~comp:"server" "metrics endpoint up" (fun () ->
      [ Log.s "addr" (addr_to_string bound) ]);
  bound

(* An [Exec] outcome, folded back into the wire vocabulary of the
   request that produced it. *)
let response_of_outcome t ~kind (o : Exec.outcome) =
  match (o, kind) with
  | Exec.Ok out, `Query -> Wire.Ids { ids = out.(0); complete = true; faults = [] }
  | Exec.Ok out, `Batch -> Wire.Batch_ids { results = out; complete = true; faults = [] }
  | Exec.Degraded (out, faults), `Query ->
      Wire.Ids { ids = out.(0); complete = false; faults }
  | Exec.Degraded (out, faults), `Batch ->
      Wire.Batch_ids { results = out; complete = false; faults }
  | Exec.Deadline_exceeded { completed = 0; _ }, _ ->
      (* expired before any work — still queued when the budget ran out *)
      Wire.Error (Wire.Deadline, Printf.sprintf "queued past %dms" t.deadline_ms)
  | Exec.Deadline_exceeded { partial; completed }, `Batch ->
      Wire.Batch_ids
        {
          results = partial;
          complete = false;
          faults =
            [
              Printf.sprintf "deadline exceeded after %d of %d queries" completed
                (Array.length partial);
            ];
        }
  | Exec.Deadline_exceeded _, `Query ->
      (* unreachable: a single-query request either completes its one
         query (first-query immunity) or expires with completed = 0 *)
      Wire.Error (Wire.Deadline, "deadline exceeded")
  | Exec.Overloaded, _ -> Wire.Error (Wire.Overloaded, "request queue full")

(* Hand a query-bearing request to the pool. The completion callback
   runs on whichever worker domain served it (or right here, for an
   admission refusal) and writes the response itself — no coordination
   hop back to the accept loop. *)
let submit_query t conn req =
  Atomic.incr conn.pending;
  (* enter the gate as a reader before the request can reach a worker:
     a mutation (wire write, replicated batch) waits for in-flight
     queries and blocks new ones, so no query observes a half-applied
     batch *)
  Replication.Gate.enter_read t.gate;
  let t0 = Trace.now_ns () in
  let qs, kind, rid, trace =
    match req with
    | Wire.Query q -> ([| q |], `Query, 0, false)
    | Wire.Batch_ex { request_id; trace; queries } -> (queries, `Batch, request_id, trace)
    | _ -> assert false
  in
  let ereq =
    Exec.request ~deadline_ms:t.deadline_ms
      ?request_id:(if rid <> 0 then Some rid else None)
      ~trace qs
  in
  let on_complete outcome =
    respond t conn (response_of_outcome t ~kind outcome);
    (match outcome with
    | Exec.Overloaded when Log.would_log Log.Warn ->
        Log.warn ~comp:"server" "request refused: overloaded" (fun () ->
            [ Log.s "peer" conn.peer; Log.i "queries" (Array.length qs) ])
    | _ -> ());
    if Control.enabled () then begin
      let now = Trace.now_ns () in
      Metrics.observe Metrics.default "net.request.ns" (now - t0);
      (* the server-side envelope of the request: receipt to response
         written, bridging the accept loop and the worker domain *)
      Trace.record ~request_id:(Exec.request_id ereq) ~t0_ns:t0 ~dur_ns:(now - t0)
        "server.request"
    end;
    Replication.Gate.exit_read t.gate;
    Atomic.decr conn.pending
  in
  ignore (Exec.submit ~on_complete t.pool t.db ereq)

(* ---------------- replication handlers ---------------- *)

(* Push pending records to every subscribed replica. Runs on the
   accept-loop domain only (right after a wire write lands, and every
   select tick), so subscriber cursors need no locking. *)
let flush_subscribers t =
  let l = Replication.lsn t.repl in
  let e = Replication.epoch t.repl in
  List.iter
    (fun c ->
      match c.sub with
      | Some sub when (not (Atomic.get c.closing)) && l > sub.sent_lsn -> (
          match Replication.records_from t.repl sub.sent_lsn with
          | Some records ->
              let from_lsn = sub.sent_lsn in
              sub.sent_lsn <- from_lsn + List.length records;
              respond t c (Wire.Repl_records { epoch = e; from_lsn; records })
          | None ->
              (* the tail was trimmed past this subscriber: resync *)
              let resp =
                Replication.Gate.with_write t.gate (fun () ->
                    Wire.Repl_snapshot
                      { epoch = e; lsn = Replication.lsn t.repl; segments = Db.segments t.db })
              in
              (match resp with
              | Wire.Repl_snapshot { lsn; _ } -> sub.sent_lsn <- lsn
              | _ -> ());
              respond t c resp)
      | _ -> ())
    t.conns

(* A wire write: primary-only, committed through the idempotent replay
   path (safe under client retry), serialized against queries by the
   gate, then streamed out immediately. *)
let handle_write t conn op =
  if Atomic.get t.stopping then
    respond t conn (Wire.Error (Wire.Shutting_down, "draining"))
  else if Replication.role t.repl <> Replication.Primary then
    respond t conn
      (Wire.Error (Wire.Not_primary, "read-only replica: write to the primary or promote"))
  else begin
    let changed =
      Replication.Gate.with_write t.gate (fun () -> Replication.commit t.repl t.db op)
    in
    respond t conn (Wire.Applied { lsn = Replication.lsn t.repl; changed });
    flush_subscribers t
  end

let handle_subscribe t conn ~epoch ~from_lsn =
  let my = Replication.epoch t.repl in
  if Atomic.get t.stopping then
    respond t conn (Wire.Error (Wire.Shutting_down, "draining"))
  else if epoch > my then begin
    (* the subscriber has seen a newer primary: we are the stale one
       and must not stream history the cluster has moved past *)
    Log.warn ~comp:"repl" "subscriber carries newer epoch; refusing to stream" (fun () ->
        [ Log.s "peer" conn.peer; Log.i "their_epoch" epoch; Log.i "our_epoch" my ]);
    respond t conn
      (Wire.Error
         (Wire.Fenced, Printf.sprintf "node epoch %d is behind subscriber epoch %d" my epoch))
  end
  else if Replication.role t.repl <> Replication.Primary then
    respond t conn (Wire.Error (Wire.Not_primary, "cannot subscribe to a replica"))
  else begin
    (* same epoch and a from_lsn the in-memory tail still covers →
       stream the tail; anything else (an older epoch's divergent
       history, a subscriber older than the retained tail, a fresh
       node) → full snapshot under the gate, so (segments, lsn) is one
       consistent cut *)
    let answer =
      if epoch = my then
        match Replication.records_from t.repl from_lsn with
        | Some records ->
            Some (Wire.Repl_records { epoch = my; from_lsn; records }, from_lsn + List.length records)
        | None -> None
      else None
    in
    let answer, sent_lsn =
      match answer with
      | Some a -> a
      | None ->
          Replication.Gate.with_write t.gate (fun () ->
              let lsn = Replication.lsn t.repl in
              (Wire.Repl_snapshot { epoch = my; lsn; segments = Db.segments t.db }, lsn))
    in
    (* the cursor is exactly what this answer carries — never re-read
       the stream lsn here, or a commit landing between building the
       answer and this line would be skipped for this subscriber *)
    conn.sub <- Some { sent_lsn };
    Log.info ~comp:"repl" "replica subscribed" (fun () ->
        [
          Log.s "peer" conn.peer;
          Log.i "from_lsn" from_lsn;
          Log.i "epoch" epoch;
          Log.b "snapshot" (match answer with Wire.Repl_snapshot _ -> true | _ -> false);
        ]);
    respond t conn answer
  end

let handle_ack t conn ~epoch ~lsn =
  let my = Replication.epoch t.repl in
  if epoch <> my then begin
    Log.warn ~comp:"repl" "stale-epoch ack fenced" (fun () ->
        [ Log.s "peer" conn.peer; Log.i "their_epoch" epoch; Log.i "our_epoch" my ]);
    respond t conn
      (Wire.Error
         (Wire.Fenced, Printf.sprintf "ack epoch %d does not match node epoch %d" epoch my))
  end
  else Replication.ack t.repl ~peer:conn.peer lsn (* fire-and-forget: no response *)

let handle_promote t conn ~epoch =
  match Replication.role t.repl with
  | Replication.Primary ->
      let cur = Replication.epoch t.repl in
      if epoch = 0 || epoch = cur then
        (* idempotent for an operator script that retries *)
        respond t conn (Wire.Promoted { epoch = cur })
      else if epoch > cur then begin
        (* operator-forced fence bump on a live primary *)
        Replication.set_epoch t.repl epoch;
        Log.info ~comp:"repl" "epoch bumped" (fun () -> [ Log.i "epoch" epoch ]);
        respond t conn (Wire.Promoted { epoch })
      end
      else
        respond t conn
          (Wire.Error
             ( Wire.Fenced,
               Printf.sprintf "promote to epoch %d is behind current epoch %d" epoch cur
             ))
  | Replication.Replica -> (
      match Replication.promote t.repl ~epoch () with
      | new_epoch ->
          (match t.tail with Some tl -> Replication.stop_tail tl | None -> ());
          Log.info ~comp:"repl" "promoted to primary" (fun () ->
              [ Log.i "epoch" new_epoch; Log.i "lsn" (Replication.lsn t.repl) ]);
          respond t conn (Wire.Promoted { epoch = new_epoch })
      | exception Invalid_argument msg -> respond t conn (Wire.Error (Wire.Fenced, msg)))

(* ---------------- accept loop ---------------- *)

let dispatch t conn req =
  if Control.enabled () then Metrics.incr t.m_requests;
  match req with
  | Wire.Ping -> respond t conn Wire.Pong
  | Wire.Shutdown ->
      Log.info ~comp:"server" "shutdown frame received; draining" (fun () ->
          [ Log.s "peer" conn.peer ]);
      respond t conn Wire.Shutdown_ack;
      stop t
  | Wire.Stats fmt -> respond t conn (Wire.Stats_payload (stats_payload t fmt))
  | Wire.Trace_fetch { request_id } ->
      (* inline like Stats: a read of the trace ring, no execution *)
      let evs =
        List.filter (fun (e : Trace.event) -> e.Trace.request_id = request_id) (Trace.events ())
      in
      respond t conn (Wire.Trace_events evs)
  | Wire.Slowlog fmt ->
      let es = Slowlog.entries () in
      respond t conn
        (Wire.Slowlog_payload
           (match fmt with `Text -> Slowlog.to_text es | `Json -> Slowlog.to_json es))
  | Wire.Insert s -> handle_write t conn (Db.Op_insert s)
  | Wire.Delete s -> handle_write t conn (Db.Op_delete s)
  | Wire.Repl_subscribe { epoch; from_lsn } -> handle_subscribe t conn ~epoch ~from_lsn
  | Wire.Repl_ack { epoch; lsn } -> handle_ack t conn ~epoch ~lsn
  | Wire.Repl_status -> respond t conn (Wire.Repl_status_payload (repl_status_enriched t))
  | Wire.Promote { epoch } -> handle_promote t conn ~epoch
  | Wire.Query _ | Wire.Batch_ex _ ->
      if Atomic.get t.stopping then respond t conn (Wire.Error (Wire.Shutting_down, "draining"))
      else submit_query t conn req

(* Take complete frames off [conn.inbox] where they lie. Framing
   damage (oversized header, CRC mismatch) means the stream can no
   longer be trusted: answer [Corrupt_frame] and close. A frame that
   is intact but does not decode is the client's problem alone:
   [Bad_request], stream stays up. *)
let rec parse_frames t conn =
  if not (Atomic.get conn.closing) then begin
    let t_dec = if Control.enabled () then Trace.now_ns () else 0 in
    match Wire.Inbox.next conn.inbox with
    | Wire.Inbox.Await -> ()
    | Wire.Inbox.Damaged e ->
        Log.warn ~comp:"server" "corrupt frame; closing stream" (fun () ->
            [ Log.s "peer" conn.peer; Log.s "error" (Wire.protocol_error_to_string e) ]);
        respond t conn (Wire.Error (Wire.Corrupt_frame, Wire.protocol_error_to_string e));
        Atomic.set conn.closing true
    | Wire.Inbox.Request decoded ->
        if t_dec <> 0 then
          Metrics.observe Metrics.default "net.decode.ns" (Trace.now_ns () - t_dec);
        (match decoded with
        | Result.Error e ->
            respond t conn (Wire.Error (Wire.Bad_request, Wire.protocol_error_to_string e))
        | Result.Ok req -> dispatch t conn req);
        parse_frames t conn
  end

let read_chunk t conn =
  match Wire.Inbox.fill conn.inbox (Failpoint.Io.recv conn.fd) with
  | 0 -> Atomic.set conn.closing true
  | n ->
      if Control.enabled () then Metrics.add t.m_bytes_in n;
      conn.last_active <- Trace.now_ns ();
      parse_frames t conn
  | exception Unix.Unix_error (_, _, _) -> Atomic.set conn.closing true

let peer_string fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX _ -> "unix"
  | exception Unix.Unix_error (_, _, _) -> "?"

let accept_conn t =
  match Unix.accept t.lfd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ ->
      (match t.bound with
      | Tcp _ -> ( try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
      | Unix_path _ -> ());
      (* Unix-socket peers are all anonymous; the counter keeps them
         distinct in logs and in the replication ack table *)
      t.next_conn <- t.next_conn + 1;
      let peer =
        match peer_string fd with
        | "unix" -> Printf.sprintf "unix#%d" t.next_conn
        | p -> p
      in
      Log.info ~comp:"server" "connection accepted" (fun () -> [ Log.s "peer" peer ]);
      Atomic.incr t.live_conns;
      t.conns <-
        {
          fd;
          peer;
          inbox = Wire.Inbox.create ();
          outbox = Wire.Outbox.create ();
          wlock = Mutex.create ();
          pending = Atomic.make 0;
          closing = Atomic.make false;
          last_active = Trace.now_ns ();
          sub = None;
        }
        :: t.conns

(* Close connections marked [closing] whose queued jobs have all
   answered — deferring the close keeps worker writes off a reused fd.
   With [idle_timeout_s] set, a peer silent past it is reaped too:
   a dead client must not hold its slot forever. Subscribed replicas
   are exempt — quiet is their steady state between writes. *)
let reap t =
  if t.idle_timeout_s > 0. then begin
    let now = Trace.now_ns () in
    let idle_s c = float_of_int (now - c.last_active) /. 1e9 in
    List.iter
      (fun c ->
        if
          (not (Atomic.get c.closing))
          && c.sub = None
          && Atomic.get c.pending = 0
          && idle_s c > t.idle_timeout_s
        then begin
          Log.info ~comp:"server" "idle connection reaped" (fun () ->
              [ Log.s "peer" c.peer; Log.f "idle_s" (idle_s c) ]);
          Atomic.set c.closing true
        end)
      t.conns
  end;
  let dead, live =
    List.partition (fun c -> Atomic.get c.closing && Atomic.get c.pending = 0) t.conns
  in
  List.iter
    (fun c ->
      Atomic.decr t.live_conns;
      try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ())
    dead;
  t.conns <- live

let run t =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  (* serve *)
  while not (Atomic.get t.stopping) do
    let rfds = t.lfd :: List.map (fun c -> c.fd) t.conns in
    let rfds = match t.http with Some h -> rfds @ Http.fds h | None -> rfds in
    (match Unix.select rfds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            if fd = t.lfd then accept_conn t
            else
              match t.http with
              | Some h when Http.owns h fd -> Http.handle h fd
              | _ -> (
                  match List.find_opt (fun c -> c.fd = fd) t.conns with
                  | Some c when not (Atomic.get c.closing) -> read_chunk t c
                  | _ -> ()))
          ready);
    reap t;
    (match t.http with Some h -> Http.reap h | None -> ());
    (* wire writes flush inline; this catches records the stream gained
       otherwise (a replica tail finishing a batch as the node is
       promoted), bounding replication lag at one tick *)
    flush_subscribers t
  done;
  (match t.tail with Some tl -> Replication.stop_tail tl | None -> ());
  (try Unix.close t.lfd with Unix.Unix_error (_, _, _) -> ());
  (match t.http with
  | Some h ->
      Http.close h;
      t.http <- None;
      (match t.metrics_bound_ with
      | Some (Unix_path p) -> (
          try Unix.unlink p with Unix.Unix_error (_, _, _) | Sys_error _ -> ())
      | _ -> ())
  | None -> ());
  let drained () = List.for_all (fun c -> Atomic.get c.pending = 0) t.conns in
  if Atomic.get t.killed then begin
    (* abrupt death (chaos soak): sever every connection mid-exchange —
       no drain answers, no unlink (a real SIGKILL leaves the socket
       path behind). Fds close only after in-flight jobs finish, so a
       worker's response write hits a severed socket, never a reused
       descriptor. *)
    List.iter
      (fun c -> try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error (_, _, _) -> ())
      t.conns;
    while not (drained ()) do
      Unix.sleepf 0.002
    done;
    Exec.shutdown t.pool;
    List.iter (fun c -> Atomic.set c.closing true) t.conns;
    reap t
  end
  else begin
    (* drain: no new connections or requests; answer what is queued,
       then stop the pool (joins its worker domains) *)
    Log.info ~comp:"server" "draining" (fun () ->
        [
          Log.s "addr" (addr_to_string t.bound);
          Log.i "connections" (List.length t.conns);
          Log.i "pending" (List.fold_left (fun a c -> a + Atomic.get c.pending) 0 t.conns);
        ]);
    while not (drained ()) do
      Unix.sleepf 0.002
    done;
    Exec.shutdown t.pool;
    Log.info ~comp:"server" "drained; pool stopped" (fun () ->
        [ Log.s "addr" (addr_to_string t.bound) ]);
    List.iter (fun c -> Atomic.set c.closing true) t.conns;
    List.iter (fun c -> Atomic.set c.pending 0) t.conns;
    reap t;
    match t.bound with
    | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error (_, _, _) | Sys_error _ -> ())
    | Tcp _ -> ()
  end;
  match t.tail with
  | Some tl -> Replication.join_tail tl
  | None -> ()

let start t = t.runner <- Some (Domain.spawn (fun () -> run t))

let wait t =
  match t.runner with
  | None -> ()
  | Some d ->
      t.runner <- None;
      Domain.join d
