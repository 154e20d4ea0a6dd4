module Db = Segdb_core.Segdb
module Metrics = Segdb_obs.Metrics
module Control = Segdb_obs.Control
module Rng = Segdb_util.Rng

exception Error of string

type t = {
  addrs : Server.addr array;
  mutable cur : int;
  retries : int;
  backoff_ms : int;
  backoff_seed : int;
  timeout : float option;
  mutable fd : Unix.file_descr option;
  mutable probe : bool;
      (** health-probe (ping) the next endpoint before replaying a
          request on it — set whenever failover rotates *)
}

let c_io_retries = Metrics.counter Metrics.default "io.retries"
let c_net_retries = Metrics.counter Metrics.default "net.client.retries"
let c_failovers = Metrics.counter Metrics.default "net.client.failovers"

let count_retry () =
  if Control.enabled () then begin
    Metrics.incr c_io_retries;
    Metrics.incr c_net_retries
  end

let endpoint t = t.addrs.(t.cur)

(* Deterministic jitter in [0.5, 1.0): clients seeded differently
   desynchronize (no retry storm against a restarted primary), while a
   fixed seed reproduces the exact schedule under test. *)
let jitter ~seed ~attempt =
  let r = Rng.create (seed lxor ((attempt + 1) * 0x2545f491)) in
  0.5 +. Rng.float r 0.5

let backoff_delay_s ~seed ~backoff_ms ~attempt =
  float_of_int (backoff_ms * (1 lsl min attempt 10)) /. 1000.0 *. jitter ~seed ~attempt

let backoff t attempt =
  count_retry ();
  Unix.sleepf (backoff_delay_s ~seed:t.backoff_seed ~backoff_ms:t.backoff_ms ~attempt)

(* A transport error anywhere mid-exchange leaves the stream possibly
   desynchronized; the only safe recovery is a fresh connection. *)
let drop t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())

let close = drop

(* Failover: after a drop, the next attempt goes to the next endpoint,
   health-probed before the request is replayed on it. *)
let rotate t =
  if Array.length t.addrs > 1 then begin
    t.cur <- (t.cur + 1) mod Array.length t.addrs;
    t.probe <- true;
    if Control.enabled () then Metrics.incr c_failovers
  end

let transient = function
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.EPIPE | Unix.ENOENT
  | Unix.EIO | Unix.ETIMEDOUT | Unix.ENETUNREACH | Unix.EHOSTUNREACH ->
      true
  | _ -> false

let connect_fd t =
  match t.fd with
  | Some fd -> fd
  | None ->
      let fd = Server.dial (endpoint t) in
      t.fd <- Some fd;
      fd

type attempt =
  | Answer of Wire.response
  | Retry of string  (** transient; connection already dropped if suspect *)

(* With several endpoints the definitive/transient split shifts for
   two answers: [Not_primary] (a write or subscribe reached a replica)
   and [Shutting_down] (this node is draining) are failover-able —
   another endpoint may be the primary, or not draining. Single-
   endpoint clients keep the original semantics: both are answers. *)
let failover_code t = function
  | Wire.Not_primary | Wire.Shutting_down -> Array.length t.addrs > 1
  | _ -> false

let attempt_rpc t req =
  match
    let fd = connect_fd t in
    if t.probe then begin
      (* a cheap liveness check on the freshly rotated-to endpoint, so
         the real request is not burned discovering a dead server *)
      Wire.send fd (Wire.encode_request Wire.Ping);
      match Wire.recv ?timeout:t.timeout fd with
      | Result.Ok p when Wire.decode_response p = Result.Ok Wire.Pong -> t.probe <- false
      | _ -> raise (Unix.Unix_error (Unix.EIO, "health probe", ""))
    end;
    Wire.send fd (Wire.encode_request req);
    Wire.recv ?timeout:t.timeout fd
  with
  | Result.Ok payload -> (
      match Wire.decode_response payload with
      | Result.Ok (Wire.Error ((Wire.Overloaded | Wire.Corrupt_frame) as code, msg)) ->
          (* Corrupt_frame means the server saw damage on this stream
             and will close it — reconnect rather than race the close *)
          if code = Wire.Corrupt_frame then drop t;
          Retry (Wire.error_code_to_string code ^ ": " ^ msg)
      | Result.Ok (Wire.Error (code, msg)) when failover_code t code ->
          drop t;
          Retry (Wire.error_code_to_string code ^ ": " ^ msg)
      | Result.Ok resp -> Answer resp
      | Result.Error e ->
          drop t;
          Retry (Wire.protocol_error_to_string e))
  | Result.Error e ->
      drop t;
      Retry (Wire.protocol_error_to_string e)
  | exception Unix.Unix_error (code, fn, _) when transient code ->
      drop t;
      Retry (Printf.sprintf "%s: %s" fn (Unix.error_message code))

let rpc t req =
  let rec go attempt =
    match attempt_rpc t req with
    | Answer resp -> resp
    | Retry why ->
        if attempt >= t.retries then
          raise
            (Error
               (Printf.sprintf "%s: giving up after %d attempts (%s)"
                  (Server.addr_to_string (endpoint t)) (attempt + 1) why));
        (* rotate only when the connection was dropped: an [Overloaded]
           answer keeps both the stream and the endpoint *)
        if t.fd = None then rotate t;
        backoff t attempt;
        go (attempt + 1)
  in
  go 0

let connect_many ?(retries = 4) ?(backoff_ms = 10) ?(timeout_ms = 5000) ?backoff_seed addrs =
  if addrs = [] then invalid_arg "Client.connect_many: at least one endpoint required";
  let backoff_seed =
    match backoff_seed with
    | Some s -> s
    | None ->
        (* per-process default: distinct clients must not share a
           jitter schedule *)
        (Unix.getpid () * 0x9e3779b1) lxor int_of_float (Unix.gettimeofday () *. 1e6)
  in
  let t =
    {
      addrs = Array.of_list addrs;
      cur = 0;
      retries = max 0 retries;
      backoff_ms = max 1 backoff_ms;
      backoff_seed;
      timeout = (if timeout_ms <= 0 then None else Some (float_of_int timeout_ms /. 1000.0));
      fd = None;
      probe = false;
    }
  in
  let rec go attempt =
    match connect_fd t with
    | _ -> ()
    | exception Unix.Unix_error (code, _, _) when transient code ->
        if attempt >= t.retries then
          raise
            (Error
               (Printf.sprintf "%s: connect failed after %d attempts (%s)"
                  (Server.addr_to_string (endpoint t)) (attempt + 1)
                  (Unix.error_message code)));
        rotate t;
        backoff t attempt;
        go (attempt + 1)
  in
  go 0;
  t

let connect ?retries ?backoff_ms ?timeout_ms ?backoff_seed addr =
  connect_many ?retries ?backoff_ms ?timeout_ms ?backoff_seed [ addr ]

let unexpected what resp =
  let got =
    match resp with
    | Wire.Error (code, msg) -> Wire.error_code_to_string code ^ ": " ^ msg
    | Wire.Pong -> "pong"
    | Wire.Ids _ -> "ids"
    | Wire.Batch_ids _ -> "batch ids"
    | Wire.Stats_payload _ -> "stats"
    | Wire.Shutdown_ack -> "shutdown ack"
    | Wire.Trace_events _ -> "trace events"
    | Wire.Slowlog_payload _ -> "slowlog"
    | Wire.Applied _ -> "applied"
    | Wire.Repl_records _ -> "repl records"
    | Wire.Repl_snapshot _ -> "repl snapshot"
    | Wire.Repl_status_payload _ -> "repl status"
    | Wire.Promoted _ -> "promoted"
  in
  raise (Error (Printf.sprintf "expected %s, got %s" what got))

let ping t = match rpc t Wire.Ping with Wire.Pong -> () | r -> unexpected "pong" r

let query t q =
  match rpc t (Wire.Query q) with
  | Wire.Ids { ids; complete; faults } ->
      { Db.Degraded.value = ids; complete; faults }
  | r -> unexpected "ids" r

let batch t ?(request_id = 0) ?(trace = false) qs =
  match rpc t (Wire.Batch_ex { request_id; trace; queries = qs }) with
  | Wire.Batch_ids { results; complete; faults } ->
      { Db.Degraded.value = results; complete; faults }
  | r -> unexpected "batch ids" r

let fetch_trace t ~request_id =
  match rpc t (Wire.Trace_fetch { request_id }) with
  | Wire.Trace_events evs -> evs
  | r -> unexpected "trace events" r

let slowlog t fmt =
  match rpc t (Wire.Slowlog fmt) with
  | Wire.Slowlog_payload s -> s
  | r -> unexpected "slowlog" r

let stats t fmt =
  match rpc t (Wire.Stats fmt) with
  | Wire.Stats_payload s -> s
  | r -> unexpected "stats" r

let shutdown t =
  match rpc t Wire.Shutdown with Wire.Shutdown_ack -> () | r -> unexpected "shutdown ack" r

let insert t s =
  match rpc t (Wire.Insert s) with
  | Wire.Applied { lsn; changed } -> (lsn, changed)
  | r -> unexpected "applied" r

let delete t s =
  match rpc t (Wire.Delete s) with
  | Wire.Applied { lsn; changed } -> (lsn, changed)
  | r -> unexpected "applied" r

let promote ?(epoch = 0) t =
  match rpc t (Wire.Promote { epoch }) with
  | Wire.Promoted { epoch } -> epoch
  | r -> unexpected "promoted" r

let repl_status t =
  match rpc t Wire.Repl_status with
  | Wire.Repl_status_payload st -> st
  | r -> unexpected "repl status" r
