(** The serving layer: a TCP / Unix-domain socket server over one
    database.

    Architecture: one {e accept loop} (the domain that calls {!run})
    multiplexes the listen socket and every live connection with
    [select], peels complete frames off per-connection buffers, and
    submits query-bearing requests to a {!Segdb_exec.Exec} pool — the
    same execution engine that answers the CLI's local batches.
    The server owns {e no} worker domains, request queue, or deadline
    bookkeeping of its own: admission control, per-worker readers,
    deadline propagation and cancellation all live in the engine; the
    completion callback writes the response from whichever worker
    domain served the request.

    Backpressure is explicit: when the engine's queue is full the
    request is answered [Error Overloaded] immediately instead of
    buffering without bound. Each request carries a deadline from the
    moment it is submitted; one still queued past its budget is
    answered [Error Deadline] without being executed, and one that
    expires mid-batch returns the partial answers it earned (an
    admitted request always completes at least its first query). A
    [Shutdown] frame (or {!stop}, which is what the SIGTERM handler of
    [segdb_server] calls) drains gracefully: accepting stops, admitted
    requests are answered, the pool is shut down, then every connection
    is closed and {!run} returns.

    Instrumentation (under {!Segdb_obs.Control.enabled}): [net.requests],
    [net.bytes_in], [net.bytes_out] counters and the [net.request.ns]
    histogram from this layer, plus the engine's [exec.queue_depth]
    gauge, [exec.request.ns] histogram and [exec.deadline_exceeded] /
    [exec.cancelled] counters — all served over the wire by the
    [Stats] frame. *)

module Db := Segdb_core.Segdb
module Exec := Segdb_exec.Exec

type addr = Tcp of string * int | Unix_path of string

val addr_of_string : string -> (addr, string) result
(** ["HOST:PORT"] or ["unix:PATH"]; a bare path containing ['/'] is
    also taken as a Unix socket. *)

val addr_to_string : addr -> string
val pp_addr : Format.formatter -> addr -> unit

val sockaddr_of : addr -> Unix.sockaddr
(** Resolve to a connectable/bindable [Unix.sockaddr] (host names via
    [getaddrinfo]; raises [Unix.Unix_error] on resolution failure). *)

type t

val create :
  ?domains:int ->
  ?queue_depth:int ->
  ?deadline_ms:int ->
  ?cache_blocks:int ->
  ?idle_timeout_s:float ->
  ?health_stall_s:float ->
  ?epoch:int ->
  ?replica_of:addr ->
  db:Db.t ->
  addr ->
  t
(** Binds and listens immediately (so {!bound_addr} is final before any
    worker starts), then creates the server's {!Segdb_exec.Exec} pool:
    [domains] worker domains (default 2, min 1), [queue_depth] bounds
    admission (default 128; 0 refuses all queued work — useful to test
    backpressure), [deadline_ms] is the per-request budget from
    submission (default 5000; 0 disables), [cache_blocks] sizes each
    worker's cached reader shard. Raises [Unix.Unix_error] if the
    address cannot be bound.

    [idle_timeout_s] (default 0 = never) reaps connections with no
    traffic and no in-flight requests for that long — a dead peer must
    not hold its slot forever; each reap is logged. Subscribed
    replicas are exempt.

    [replica_of] starts the node as a {e replica} of the primary at
    that address: a background tail subscribes from the node's applied
    LSN, applies pushed records behind the query gate (each apply
    bumps [Segdb.generation], so worker readers rebuild), and catches
    up by snapshot when it joins late or reconnects after a partition.
    A replica answers queries normally but refuses writes and
    subscriptions with [Not_primary] until a [Promote] frame turns it
    into a primary at a fenced epoch. [epoch] seeds the fencing epoch
    (default 1 for a primary, 0 for a replica).

    [health_stall_s] (default 3) is the replica staleness threshold
    behind [/healthz]: a replica whose stream has shown no sign of life
    (no applied records, and no status probe answered by the upstream)
    for longer than this answers 503. *)

val bound_addr : t -> addr
(** The actual listening address — the kernel-chosen port when the TCP
    address was given port 0. *)

val serve_metrics : t -> addr -> addr
(** Bind the monitoring exporter ({!Http}) on [addr] and serve it from
    the accept loop: [GET /metrics] (Prometheus exposition, gauges
    refreshed at scrape time), [GET /healthz] (role / epoch / LSN /
    progress / queue and pool occupancy / per-peer lag as JSON; 200
    healthy, 503 stopping or stalled replica), [GET /varz] (the
    sampler's ring as JSON). Returns the bound address (kernel-chosen
    port for TCP port 0). Call before {!run}/{!start}; raises
    [Unix.Unix_error] if the address cannot be bound. The endpoints
    answer even with observability off ([/metrics] then leads with a
    "disabled" comment) — health must not depend on metrics being on. *)

val metrics_addr : t -> addr option
(** The exporter's bound address, when {!serve_metrics} was called. *)

val pool : t -> Exec.t
(** The server's execution pool (for size / introspection). *)

val replication : t -> Replication.t
(** The node's replication stream state: role, epoch, LSN, acks. *)

val run : t -> unit
(** Serve until a [Shutdown] frame arrives or {!stop} is called; the
    calling domain becomes the accept loop. Worker domains are spawned
    on entry and joined before returning; every connection is closed
    and (for Unix sockets) the path unlinked. *)

val start : t -> unit
(** {!run} in a background domain — for in-process loopback use (tests,
    bench, the CLI's own client against itself). *)

val stop : t -> unit
(** Request a graceful drain. Async-signal-safe: only flips an atomic;
    the accept loop notices within its select tick. *)

val kill : t -> unit
(** Abrupt death, for chaos tests: stop without draining. Queued
    requests are never answered, every connection is severed
    mid-exchange, and (for Unix sockets) the path is left behind —
    what a SIGKILL would leave. Like {!stop}, only flips atomics. *)

val wait : t -> unit
(** Join a server started with {!start} (returns immediately if {!run}
    already returned). *)

val open_or_build : ?backend:Db.backend -> ?block:int -> string -> Db.t
(** Load a database for serving: a file with the snapshot magic is
    reopened via [Db.open_db], anything else is parsed as a text
    segment file and indexed with [backend]/[block] (defaults:
    [`Solution2], 64). Used by [segdb_server]. *)
