open Segdb_geom
module Db = Segdb_core.Segdb

(** The execution engine: every query entry point, one scheduler.

    [Exec] owns query execution end-to-end. A {!t} is a persistent pool
    of worker domains — spawned once, reused for every batch — fed by a
    bounded job queue. Work arrives as a typed {!request} (query batch,
    absolute deadline, degraded-result tolerance) and leaves as a typed
    {!outcome}; deadlines and explicit cancellation propagate into the
    storage layer through [Segdb_io.Cancel], so an abandoned request
    stops at the next block fetch instead of scanning to completion.

    Two ways in:

    - {!run} — cooperative fan-out for a caller that wants the batch
      answered {e now}: the calling domain participates, idle pool
      workers join as helpers, and queries are pulled off a shared
      cursor. This is the only in-process batch executor: the CLI's
      [batch], [fuzz --parallel] and the bench all call it.
    - {!submit} / {!await} — admission-controlled asynchronous
      execution for servers: the request is queued for a single worker,
      refused with {!Overloaded} when the queue is full, and completed
      through a callback on the worker domain.

    Pool metrics land in [Segdb_obs.Metrics.default] when observability
    is on: [exec.queue_depth] (gauge), [exec.request.ns] (histogram
    over submitted requests, decomposed into [exec.queue_wait.ns] —
    submit to worker pickup — and [exec.service.ns] — pickup to
    completion), [exec.deadline_exceeded] and [exec.cancelled]
    (counters). Submitted requests additionally feed the slow-query
    log ([Segdb_obs.Slowlog]) when its threshold is armed, and
    admission refusals / deadline cuts / cancellations emit
    [Segdb_obs.Log] events under the ["exec"] component. *)

(** {1 Requests and outcomes} *)

type request
(** A batch of queries plus its execution policy, built by {!request}.
    Immutable; a request may be run or submitted more than once. *)

val request :
  ?deadline_ms:int ->
  ?degraded_ok:bool ->
  ?trace:bool ->
  ?request_id:int ->
  Vquery.t array ->
  request
(** [request qs] describes executing the batch [qs].

    - [deadline_ms]: budget from {e now} (the clock starts at
      construction, so queue time counts against it — a request built
      at admission and served late can expire before its first query).
      [0] or absent means no deadline. Whatever the budget, an admitted
      request always completes its first query: deadline enforcement
      arms only after one answer exists, so a tight deadline yields a
      partial result rather than an empty one, and only a request that
      expired while still queued reports zero completions.
    - [degraded_ok] (default [true]): storage faults (corrupt pages,
      undecodable blocks) are collected per query and reported through
      {!Degraded} rather than raised; [false] re-raises the first
      fault to the caller of {!run}. Injected crashes
      ([Failpoint.Injected_crash]) always propagate — they model
      process death, not a servable fault.
    - [trace] (default [false]): wrap execution in a
      [Segdb_obs.Trace] span (["exec.batch"]) when observability is
      enabled.
    - [request_id]: the id every trace span recorded while executing
      this request is attributed to — pass the id a remote client
      generated to stitch its timeline across processes. Absent (or
      [0]), a fresh id is drawn from
      [Segdb_obs.Trace.fresh_request_id]. *)

val request_id : request -> int
(** The id the request's spans and slow-query records carry. Never
    [0]. *)

type outcome =
  | Ok of int list array
      (** Element [i] holds the sorted matching ids for query [i]. *)
  | Degraded of int list array * string list
      (** Every query ran, but some hit storage faults: the answers
          cover what survived, and the faults say what did not. *)
  | Deadline_exceeded of { partial : int list array; completed : int }
      (** The deadline cut execution short after [completed] queries
          (in cursor order for {!run}, batch order for {!submit});
          unanswered slots are [[]]. [completed = 0] means the request
          expired before doing any work (e.g. while queued). *)
  | Overloaded
      (** Refused at admission: the queue was at [queue_depth]. The
          request never touched a worker. *)
  | Cancelled of { partial : int list array; completed : int }
      (** Explicitly cancelled ({!cancel}, or the [cancel] flag of
          {!run}); same partial-result convention as
          [Deadline_exceeded]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-line summary: constructor, completed/total, fault count. *)

val outcome_name : outcome -> string
(** The constructor as a lowercase word ("ok", "degraded", "deadline",
    "overloaded", "cancelled") — what wire answers, slow-query records
    and log events use. *)

(** {1 The pool} *)

type t
(** A persistent pool of worker domains plus its admission queue.
    Domains are spawned by {!create} and live until {!shutdown}. *)

val create : ?queue_depth:int -> workers:int -> unit -> t
(** [create ~workers ()] spawns [max 1 workers] domains, parked on the
    job queue. [queue_depth] (default 128) bounds how many {!submit}ted
    requests may be admitted but not yet running; [0] refuses every
    submit (useful in tests). Cooperative {!run} work bypasses
    admission — a full queue can delay helpers, never the caller. *)

val size : t -> int
(** Worker-domain count (fixed at creation). *)

val busy : t -> int
(** Workers currently inside a job — the pool's instantaneous
    occupancy. One atomic load; also published as the
    ["exec.pool_busy"] gauge when observability is on. *)

val queued : t -> int
(** Jobs sitting in the queue, not yet picked up (takes the pool lock
    briefly). *)

val shutdown : t -> unit
(** Stops the workers after the queue drains and joins them.
    Idempotent. Requests admitted before shutdown complete; new
    submits are refused with {!Overloaded}. *)

(** {1 Cooperative execution} *)

type worker_stats = {
  worker : int;  (** participant slot, [0 .. domains - 1] *)
  queries : int;  (** queries this participant answered *)
  reads : int;  (** cold block reads charged to its reader *)
  cache_hits : int;  (** lookups served by the reader's own shard *)
  cache_misses : int;
}
(** Per-participant accounting for one {!run}: how the work and the
    I/O spread across domains (deltas over the batch, so passed-in
    readers may be reused). *)

val run :
  ?readers:Db.reader array ->
  ?cancel:bool Atomic.t ->
  t ->
  Db.t ->
  request ->
  domains:int ->
  outcome * worker_stats array
(** [run pool db req ~domains] answers the batch with up to [domains]
    participants: the calling domain always works, and up to
    [min (domains - 1) (size pool)] pool workers join as helpers as
    they come free (a busy pool degrades to fewer helpers, never to a
    wrong answer — the caller finishes whatever nobody else picks up).
    Queries are pulled off a shared cursor, so skewed batches
    self-balance. Element [i] of an [Ok] answer is exactly
    [Db.query_ids db (queries req).(i)]. No writer may run
    concurrently.

    [readers], when given, must have one reader per [domains] slot
    (slot [k] is used by participant [k]; slots no helper reached stay
    untouched). Setting [cancel] to [true] (from any domain) stops the
    batch at the next query boundary or block fetch.

    The [worker_stats] array has [domains] rows; rows for slots no
    helper filled report zero queries. When observability is on, each
    participant also merges its query latencies into
    [Segdb_obs.Metrics.default] under ["parallel.query.ns"]. With a
    single-worker pool or [domains = 1] the batch runs entirely
    inline — no queueing, no atomics beyond the cursor.

    Raises [Invalid_argument] on [domains < 1] or a mis-sized
    [readers]; re-raises worker exceptions when the request has
    [degraded_ok = false]. *)

(** {1 Submitted execution} *)

type ticket
(** A handle on one admitted (or refused) request. *)

val submit :
  ?cache_blocks:int -> ?on_complete:(outcome -> unit) -> t -> Db.t -> request -> ticket
(** Queues the request for a single worker domain, or refuses it when
    [queue_depth] requests are already waiting (the ticket is then
    already complete with {!Overloaded}). [on_complete] fires exactly
    once, on the worker domain (or the submitting domain for an
    admission refusal), after the outcome is recorded — a server's
    chance to write the response without a coordination hop. Workers
    keep one cached reader per database they have served (keyed by
    physical identity, sized by [cache_blocks] at first use), so a
    request stream against one database keeps its LRU shard warm
    across requests. *)

val await : ticket -> outcome
(** Blocks until the outcome is recorded; returns immediately on an
    already-complete ticket. *)

val peek : ticket -> outcome option
(** The outcome if complete, without blocking. *)

val cancel : ticket -> unit
(** Requests cancellation: a queued request completes as {!Cancelled}
    with no work done; a running one stops at the next block fetch.
    Completion still arrives through {!await} / [on_complete]. *)

val served_by : ticket -> int
(** Domain id ([Domain.self]) of the worker that executed the request,
    [-1] until one picks it up. Stable across batches on a one-worker
    pool — the test hook for pool persistence. *)

(** {1 The process-default pool} *)

val default : unit -> t
(** The lazily-created process-wide pool. Sized on first use from
    {!set_default_workers} when it was called, else from
    [Domain.recommended_domain_count ()] (minus one for the calling
    domain, minimum 1). Never shut down explicitly; its parked domains
    die with the process. *)

val set_default_workers : int -> unit
(** Overrides the default pool's size. Takes effect only before the
    pool exists (the first call to {!default}); later calls are
    ignored. *)
