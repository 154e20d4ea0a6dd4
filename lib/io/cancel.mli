(** Cooperative cancellation and deadlines for the read path.

    A {e handle} carries an explicit-cancel flag and an optional
    absolute deadline. The execution engine ({!Segdb_exec}) installs a
    handle on the current domain around each query; the storage layer
    calls {!poll} at block-fetch granularity ({!Block_store.Make.read}),
    so an expired or cancelled request stops issuing I/O instead of
    running to completion.

    Cost discipline mirrors {!Failpoint} and {!Segdb_obs.Control}: with
    no handle installed anywhere in the process, {!poll} is a single
    [Atomic.get]. With a handle installed, the cancel flag is one more
    [Atomic.get] per poll and the deadline consults the monotonic clock
    only every {!poll_stride} polls — a handful of nanoseconds
    amortized over a block fetch.

    Handles may share one cancel flag (pass [~flag]): the parallel
    batch path gives every worker domain its own handle — poll counters
    are domain-local — while a single flip of the shared flag stops all
    of them. *)

type reason = Deadline | Explicit

exception Cancelled of reason
(** Raised out of {!poll} (and therefore out of a storage read) when
    the installed handle is cancelled or past its deadline. Queries
    never mutate shared state, so unwinding mid-traversal is safe; the
    execution engine catches this at the per-query boundary. *)

type t

val create : ?deadline_ns:int -> ?flag:bool Atomic.t -> unit -> t
(** [deadline_ns] is an {e absolute} [Segdb_obs.Trace.now_ns] instant
    (0, the default, means none). [flag] shares an existing cancel
    flag between handles; a fresh one is private. *)

val cancelled : t -> bool

val expired : t -> bool
(** Whether the deadline (if any) has passed — always consults the
    clock; used between work units where precision beats cheapness. *)

val set_deadline_enabled : t -> bool -> unit
(** While [false], {!poll} ignores the deadline (the explicit flag
    still trips). The execution engine disables it around a request's
    first query so an admitted request always makes progress — a
    deadline can then only cut queries after the first. Default:
    enabled. *)

val poll_stride : int
(** {!poll} consults the clock every this many polls of an installed
    deadline handle. *)

val install : t -> (unit -> 'a) -> 'a
(** Runs the callback with the handle installed on the current domain
    (saving and restoring any previous one); storage reads inside it
    {!poll} against this handle. *)

val poll : unit -> unit
(** The storage layer's check. No handle installed: one [Atomic.get].
    Installed: raises {!Cancelled} if the flag is set, or — every
    {!poll_stride} polls while the deadline is enabled — if the
    deadline has passed. *)
