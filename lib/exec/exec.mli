open Segdb_geom
module Db = Segdb_core.Segdb

(** The execution engine: every query entry point, one scheduler.

    [Exec] owns query execution end-to-end. A {!t} is a persistent pool
    of worker domains — spawned once, reused for every batch — fed by a
    bounded job queue. Work arrives as a typed {!request} (query batch,
    absolute deadline) and leaves as a typed {!outcome}; each
    participant's reader ([Segdb_io.Read_context]) carries the
    deadline into the storage layer, so an expired request stops at the
    next block fetch instead of scanning to completion.

    Two ways in, one per-query loop behind both:

    - {!run} — cooperative fan-out for a caller that wants the batch
      answered {e now}: the calling domain participates, idle pool
      workers join as helpers, and queries are pulled off a shared
      cursor. This is the only in-process batch executor: the CLI's
      [batch] and [fuzz --parallel] call it.
    - {!submit} / {!await} — admission-controlled asynchronous
      execution for servers: the request is queued, refused with
      {!Overloaded} when the queue is full, run by the worker that
      picks it up as the loop's one participant, and completed through
      a callback on that worker's domain.

    Pool metrics land in [Segdb_obs.Metrics.default] when observability
    is on: the histograms [exec.queue_wait.ns] (submit to worker pickup)
    and [exec.service.ns] (pickup to completion) over submitted
    requests, and the [exec.deadline_exceeded] counter over both ways
    in. The engine sets no gauge: a server publishes {!busy}, {!size}
    and {!queued} when it renders its metrics. Every executed request
    feeds the slow-query log
    ([Segdb_obs.Slowlog]) when its threshold is armed, and admission
    refusals and deadline cuts emit [Segdb_obs.Log] events under the
    ["exec"] component. *)

(** {1 Requests and outcomes} *)

type request
(** A batch of queries plus its execution policy, built by {!request}.
    Immutable; a request may be run or submitted more than once. *)

val request :
  ?deadline_ms:int -> ?trace:bool -> ?request_id:int -> Vquery.t array -> request
(** [request qs] describes executing the batch [qs].

    - [deadline_ms]: budget from {e now} on [Segdb_obs.Trace.now_ns]'s
      monotonic clock (the clock starts at construction, so queue time
      counts against it — a request built at admission and served late
      can expire before its first query). [0] or absent means no
      deadline. Whatever the budget, every participant that starts
      completes its first query: deadline enforcement arms only after
      it has one answer, so a tight deadline yields a partial result
      rather than an empty one, and only a request that expired while
      still queued reports zero completions.
    - [trace] (default [false]): wrap execution in a
      [Segdb_obs.Trace] span (["exec.batch"]) when observability is
      enabled.
    - [request_id]: the id every trace span recorded while executing
      this request is attributed to — pass the id a remote client
      generated to stitch its timeline across processes. Absent (or
      [0]), a fresh id is drawn from
      [Segdb_obs.Trace.fresh_request_id].

    Storage faults (corrupt pages, undecodable blocks, I/O errors that
    survived the retry policy) are collected per query and reported
    through {!Degraded}. *)

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
          (in cursor order); unanswered slots are [[]].
          [completed = 0] means the request expired before doing any
          work (while queued for {!submit}). *)
  | Overloaded
      (** Refused at admission: the queue was at [queue_depth]. The
          request never touched a worker. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** One-line summary: constructor, completed/total, fault count. *)

(** {1 The pool} *)

type t
(** A persistent pool of worker domains plus its admission queue.
    Domains are spawned by {!create} and live until {!shutdown}. *)

val create : ?queue_depth:int -> workers:int -> unit -> t
(** [create ~workers ()] spawns [max 0 workers] domains, parked on the
    job queue. [queue_depth] (default 128) bounds how many {!submit}ted
    requests may be admitted but not yet running; [0] refuses every
    submit (useful in tests). A pool with no workers has depth [0]
    whatever [queue_depth] says, since nothing would ever pick a submit
    up; it still runs {!run} batches, on the caller alone. Cooperative
    {!run} work bypasses admission — a full queue can delay helpers,
    never the caller. *)

val size : t -> int
(** Worker-domain count (fixed at creation). *)

val busy : t -> int
(** Workers currently inside a job — the pool's instantaneous
    occupancy. One atomic load. *)

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
    I/O spread across domains. *)

val run : t -> Db.t -> request -> domains:int -> outcome * worker_stats array
(** [run pool db req ~domains] answers the batch with up to [domains]
    participants, each through a fresh reader: the calling domain
    always works, and up to [min (domains - 1) (size pool)] pool
    workers join as helpers as they come free (a busy pool degrades to
    fewer helpers, never to a wrong answer — the caller finishes
    whatever nobody else picks up). Queries are pulled off a shared
    cursor, so skewed batches self-balance. Element [i] of an [Ok]
    answer is exactly [Db.query_ids db (queries req).(i)]. No writer
    may run concurrently.

    The [worker_stats] array has [domains] rows; rows for slots no
    helper filled report zero queries. With a pool of no workers or
    [domains = 1] the batch runs entirely inline — no queueing, no
    helper handshake.

    Raises [Invalid_argument] on [domains < 1]; re-raises any
    exception other than a storage fault. *)

(** {1 Submitted execution} *)

type ticket
(** A handle on one admitted (or refused) request. *)

val submit : ?on_complete:(outcome -> unit) -> t -> Db.t -> request -> ticket
(** Queues the request for a worker domain, or refuses it when
    [queue_depth] requests are already waiting (the ticket is then
    already complete with {!Overloaded}). The worker that picks it up
    refuses it as [Deadline_exceeded] with [completed = 0] if its
    deadline passed in the queue, and otherwise runs it as {!run}'s
    loop with one participant: itself. A worker has no caller to raise
    to, so an exception other than a storage fault becomes one more
    fault string in {!Degraded} ([Failpoint.Injected_crash] still
    propagates — it models process death, not a servable fault).

    [on_complete] fires exactly once, on the worker domain (or the
    submitting domain for an admission refusal), after the outcome is
    recorded — a server's chance to write the response without a
    coordination hop. Workers keep one cached reader per database they
    have served (keyed by physical identity, its shard the size of the
    database's pool), so a request stream against one database keeps
    its LRU shard warm across requests. The reader survives writes
    between requests: the storage layer refetches only blocks of
    stores written since they were cached. *)

val await : ticket -> outcome
(** Blocks until the outcome is recorded; returns immediately on an
    already-complete ticket. *)

val served_by : ticket -> int
(** Domain id ([Domain.self]) of the worker that executed the request,
    [-1] until one picks it up. Stable across batches on a one-worker
    pool — the test hook for pool persistence. *)
