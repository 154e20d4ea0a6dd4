(** Cooperative deadlines for the read path.

    A {e handle} carries an absolute deadline. The execution engine
    ({!Segdb_exec}) installs a handle on the current domain around a
    request's queries; the storage layer calls {!poll} at block-fetch
    granularity ({!Block_store.Make.read}), so an expired request stops
    issuing I/O instead of running to completion.

    Deadlines live on [Segdb_obs.Trace.now_ns], the clock that also
    stamps spans, histograms and slow-log records. It is monotonic, so
    a step of the wall clock moves no in-flight deadline.

    Cost discipline mirrors {!Failpoint} and {!Segdb_obs.Control}: with
    no handle installed anywhere in the process, {!poll} is a single
    [Atomic.get]. With a handle installed, the deadline consults the
    clock only every {!poll_stride} polls — a handful of nanoseconds
    amortized over a block fetch. Poll counters are per handle, and a
    handle is used by one domain: each participant of a parallel batch
    installs its own. *)

exception Expired
(** Raised out of {!poll} (and therefore out of a storage read) when
    the installed handle is past its deadline. Queries never mutate
    shared state, so unwinding mid-traversal is safe; the execution
    engine catches this at the per-query boundary. *)

type t

val create : deadline_ns:int -> t
(** [deadline_ns] is an {e absolute} [Segdb_obs.Trace.now_ns]
    instant; [0] means none. *)

val expired : int -> bool
(** [expired deadline_ns]: whether that absolute deadline ([0] = none)
    has passed — always consults the clock; used between work units
    where precision beats cheapness. *)

val set_deadline_enabled : t -> bool -> unit
(** While [false], {!poll} ignores the deadline. The execution engine
    disables it around a participant's first query so an admitted
    request always makes progress — a deadline can then only cut
    queries after the first. Default: enabled. *)

val poll_stride : int
(** {!poll} consults the clock every this many polls of an installed
    deadline handle. *)

val install : t -> (unit -> 'a) -> 'a
(** Runs the callback with the handle installed on the current domain
    (saving and restoring any previous one); storage reads inside it
    {!poll} against this handle. *)

val poll : unit -> unit
(** The storage layer's check. No handle installed: one [Atomic.get].
    Installed: every {!poll_stride} polls while the deadline is
    enabled, raises {!Expired} if the deadline has passed. *)
