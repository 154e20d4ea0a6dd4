(** A blocking client with bounded retry and endpoint failover.

    Queries are read-only and the protocol's writes ([Insert]/[Delete])
    are idempotent, so every request the protocol carries is safe to
    replay; the client therefore treats the whole transient family —
    connection refused/reset, broken pipe, timeouts, framing damage
    ({!Wire.protocol_error} on the response stream), and the server's
    own [Overloaded]/[Corrupt_frame] answers — uniformly: drop the
    connection if it is suspect, back off exponentially with
    deterministic jitter, reconnect, replay. The policy mirrors
    [Failpoint.Io]'s bounded retry-with-backoff, and each replay bumps
    the same [io.retries] counter (plus [net.client.retries]) when
    observability is on.

    Definitive answers — results, [Bad_request], [Deadline],
    [Server_error], [Fenced] — are never retried.

    {b Failover}: {!connect_many} takes several endpoints. Any retry
    whose connection was dropped rotates to the next endpoint and
    health-probes it (a [Ping] exchange) before replaying the request,
    so the request is not burned discovering a dead server; each
    rotation bumps [net.client.failovers]. With more than one endpoint
    [Not_primary] and [Shutting_down] also become failover-able — the
    next endpoint may be the primary, or not draining — while a
    single-endpoint client still receives them as definitive. *)

module Db := Segdb_core.Segdb
open Segdb_geom

type t

exception Error of string
(** Retries exhausted, or the server answered with a non-transient
    error. *)

val connect :
  ?retries:int ->
  ?backoff_ms:int ->
  ?timeout_ms:int ->
  ?backoff_seed:int ->
  Server.addr ->
  t
(** Connects eagerly, retrying refused connections (a server still
    binding is a transient condition too). [retries] bounds replays
    {e per request} (default 4), [backoff_ms] seeds the exponential
    backoff (default 10), [timeout_ms] bounds each response wait
    (default 5000; 0 disables). [backoff_seed] fixes the jitter
    schedule (see {!backoff_delay_s}); defaults to a per-process value
    so concurrent clients desynchronize. *)

val connect_many :
  ?retries:int ->
  ?backoff_ms:int ->
  ?timeout_ms:int ->
  ?backoff_seed:int ->
  Server.addr list ->
  t
(** {!connect} over an endpoint list (["host1:p1,host2:p2"] on the
    CLI). The first endpoint is tried first; connection failures and
    dropped-connection retries rotate round-robin. Raises
    [Invalid_argument] on an empty list. *)

val endpoint : t -> Server.addr
(** The endpoint the next request will go to. *)

val backoff_delay_s : seed:int -> backoff_ms:int -> attempt:int -> float
(** The exact sleep before replay [attempt] (0-based):
    [backoff_ms * 2^min(attempt,10)] milliseconds scaled by a jitter
    factor in [0.5, 1.0) drawn deterministically from [(seed, attempt)].
    Exposed pure so tests can assert the schedule. *)

val rpc : t -> Wire.request -> Wire.response
(** One request, retried per the policy above. Raises {!Error} when
    retries are exhausted. The typed helpers below are this plus
    unwrapping. *)

val ping : t -> unit

val query : t -> Vquery.t -> int list Db.Degraded.t
(** Sorted ids; completeness/faults as reported by the server. *)

val batch : t -> Vquery.t array -> int list array Db.Degraded.t
(** Element [i] is exactly what in-process [Segdb.query_ids] on query
    [i] would return. *)

val batch_ex :
  t -> ?request_id:int -> ?trace:bool -> Vquery.t array -> int list array Db.Degraded.t
(** {!batch} with observability: [request_id] (a value from
    [Segdb_obs.Trace.fresh_request_id]) is attached to every span the
    server records while serving the batch, and [trace] asks it to
    bracket execution in an ["exec.batch"] span. Follow with
    {!fetch_trace} to pull those spans back. An old server answers the
    new tag with [Bad_request] (raised as {!Error}). *)

val fetch_trace : t -> request_id:int -> Segdb_obs.Trace.event list
(** The server's retained trace events for one request, in recording
    order. Empty when the server's observability is off or its ring
    wrapped past the request. *)

val slowlog : t -> [ `Text | `Json ] -> string
(** The server's slow-query log, pre-rendered. *)

val stats : t -> [ `Text | `Json | `Prometheus ] -> string
val shutdown : t -> unit

val insert : t -> Segment.t -> int * bool
(** Write through the primary: [(lsn, changed)]. [changed] is false
    when the id already existed (idempotent — safe under replay).
    A replica answers [Not_primary]: {!Error} on a single endpoint,
    failover with several. *)

val delete : t -> Segment.t -> int * bool
(** As {!insert}; [changed] is false when nothing matched. *)

val promote : ?epoch:int -> t -> int
(** Ask the connected node to become primary; returns its (possibly
    already-current) epoch. [epoch] forces a specific fenced epoch
    (0/default: bump by one); a non-advancing epoch is answered
    [Fenced] and raised as {!Error}. *)

val repl_status : t -> Wire.repl_status
(** Role, epoch, committed LSN, and per-replica acknowledged LSNs of
    the connected node. *)

val close : t -> unit
(** Idempotent. *)
