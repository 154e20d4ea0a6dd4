(** Instrumentation helpers for the I/O stack and the index structures.

    {!Segdb_obs} cannot depend on {!Io_stats}, so block accounting for
    spans happens here: [span stats phase f] runs [f] inside a trace
    span whose block count is the delta of the {e effective} stats
    counter — the installed reader's inside
    {!Read_context.with_reader}, [stats] otherwise.

    All helpers are no-ops (one atomic load) while
    {!Segdb_obs.Control.enabled} is false. *)

val span : Io_stats.t -> string -> (unit -> 'a) -> 'a

val counter : string -> Segdb_obs.Metrics.counter
(** A handle in {!Segdb_obs.Metrics.default}; resolve once per module. *)

val bump : Segdb_obs.Metrics.counter -> unit
(** Increment, only when observability is enabled. *)

val bump_by : Segdb_obs.Metrics.counter -> int -> unit
