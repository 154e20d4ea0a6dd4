(** Per-reader query context: the read path's private half of the
    buffer pool, and the one place a query learns when to stop.

    A query never mutates an index, but in the baseline design it still
    funnels through shared mutable state: the LRU buffer pool (recency
    updates, evictions) and the index's single {!Io_stats.t}. A
    [Read_context.t] gives one reader its own I/O counter and its own
    LRU shard. While a context is installed (see {!with_reader}) on the
    current domain:

    - {!Block_store} reads resolve through the context: a block found in
      the reader's shard or resident in the shared pool is free; a block
      only on the simulated disk charges one read to the {e reader's}
      stats and is cached in the reader's shard. The shared pool, the
      shared stats and the store's tables are not touched at all.
    - Every shard entry records its store's write epoch. A store's
      [write] or [free] bumps its epoch, and an entry from an older
      epoch is a miss, so a reader survives writes: it refetches only
      the blocks of stores that changed since it cached them.
    - {!Block_store} reads poll the reader's deadline (see
      {!set_deadline}): an expired request stops at the next block
      fetch instead of scanning to completion.
    - {!Block_store} [alloc]/[write]/[free]/[flush] raise
      [Invalid_argument] — the mechanism that turns "queries are pure"
      from a convention into an enforced contract.

    Contexts are domain-local (installed via [Domain.DLS]), so each
    worker domain of a parallel query batch installs its own; because
    readers never mutate shared store state, any number of domains may
    read one index concurrently as long as no writer runs. A context
    must not be shared across databases (block addresses are only unique
    within one buffer pool); sharing one across domains is also
    meaningless, as installation is per-domain. *)

type t

val create : ?cache_blocks:int -> unit -> t
(** A fresh context with its own zeroed {!Io_stats.t}, a private LRU
    shard of [cache_blocks] blocks (default 64) and no deadline. *)

val stats : t -> Io_stats.t
(** The reader's own counter: cold misses it paid, no writes, no
    allocs. *)

val cache_hits : t -> int
(** Lookups served from the reader's own shard. *)

val cache_misses : t -> int
(** Shard misses, stale entries included (whether then served by the
    shared pool or by disk). *)

val effective_stats : Io_stats.t -> Io_stats.t
(** [effective_stats default] is the counter reads on the current domain
    are charged to: the installed reader's stats, or [default] when no
    read context is active. *)

val with_reader : t -> (unit -> 'a) -> 'a
(** [with_reader t f] installs [t] as the current domain's read context
    for the duration of [f] (restoring the previous one after, also on
    exceptions). Nesting installs the innermost. *)

(** {1 Deadlines}

    Deadlines live on [Segdb_obs.Trace.now_ns], the clock that also
    stamps spans, histograms and slow-log records. It is monotonic, so
    a step of the wall clock moves no in-flight deadline. *)

exception Expired
(** Raised out of a storage read under a reader that is past its
    deadline. Queries never mutate shared state, so unwinding
    mid-traversal is safe; the execution engine catches this at the
    per-query boundary. *)

val set_deadline : t -> int -> unit
(** [set_deadline t deadline_ns] arms [t] with an {e absolute}
    [Trace.now_ns] instant ([0] clears it) and restarts its poll count.
    A reader that outlives its request must be cleared afterwards. *)

val arm : t -> bool -> unit
(** While [false], reads ignore the deadline. The execution engine
    disarms it around a participant's first query so an admitted
    request always makes progress — a deadline can then only cut
    queries after the first. Default: armed. *)

val expired : int -> bool
(** [expired deadline_ns]: whether that absolute deadline ([0] = none)
    has passed — always consults the clock; used between work units
    where precision beats cheapness. *)

val poll_stride : int
(** A read under an armed deadline consults the clock every this many
    reads. *)

(**/**)

(* The remainder is the store-facing half, used by {!Block_store};
   payloads are untyped because one context serves stores of
   different payload types (addresses are unique per pool, and the
   [uid] check catches cross-pool misuse). *)

val fresh_uid : unit -> int
val active : unit -> t option
val poll : t -> unit
val find : t -> uid:int -> epoch:int -> addr:int -> Obj.t option
val add : t -> uid:int -> epoch:int -> addr:int -> Obj.t -> unit
