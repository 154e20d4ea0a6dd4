(** Trace spans over the query pipeline.

    A span marks one phase of work — a first-level descent step, a PST
    [Find]/[Report], an interval-tree stab, a slab-tree walk, a WAL
    append. Finished spans land in
    per-domain ring buffers (oldest overwritten first, merged by
    {!events}) and their durations and block counts feed per-phase
    histograms ([span.<phase>.ns] / [span.<phase>.blocks]) in
    {!Metrics.default}, which is where the per-phase percentile tables
    come from.

    Every event carries the recording domain's id and the domain's
    current {e request id} (see {!with_request_id}), which is what
    lets spans from a client process and a server's worker domains be
    stitched back into one per-request timeline.

    Every stamp — span starts and durations, histogram samples, log
    and slow-log times, request deadlines — reads {!now_ns}: one
    monotonic clock with nanosecond resolution, shifted to wall time
    once at process start.

    All of it is inert while {!Control.enabled} is false: {!with_span}
    is exactly its body, nothing is allocated or locked. *)

type event = {
  seq : int;  (** monotone across the process; survives wraparound *)
  phase : string;
  depth : int;  (** nesting depth on the recording domain *)
  t0_ns : int;  (** start on {!now_ns}, nanoseconds *)
  dur_ns : int;
  blocks : int;  (** block reads charged during the span *)
  request_id : int;  (** request the span belongs to; 0 = none *)
  dom : int;  (** id of the domain that recorded the span *)
}

(** {1 Request identity} *)

val fresh_request_id : unit -> int
(** A new positive request id: unique within this process, unlikely to
    collide across processes (the base folds in clock and pid). Never
    returns 0. *)

val current_request_id : unit -> int
(** The calling domain's current request id; 0 when none is set. *)

val with_request_id : int -> (unit -> 'a) -> 'a
(** [with_request_id rid f] runs [f] with the calling domain's request
    id set to [rid], restoring the previous id afterwards (also on
    exception). *)

(** {1 Spans} *)

val with_span : ?blocks:(unit -> int) -> string -> (unit -> 'a) -> 'a
(** [with_span phase f] wraps [f] in a span: on exit (also by
    exception) the event lands in the calling domain's ring and feeds
    [span.<phase>.ns] and [span.<phase>.blocks]. [blocks] reads the
    caller's block-read counter (see [Segdb_io.Probe] for the helper
    that picks the right one) at entry and exit; the event carries the
    delta. When tracing is off this is exactly [f ()]. *)

val record :
  ?request_id:int -> ?blocks:int -> t0_ns:int -> dur_ns:int -> string -> unit
(** [record ~t0_ns ~dur_ns phase] appends a completed event to the
    calling domain's ring, for intervals whose endpoints were measured
    out-of-band — e.g. a queue wait stamped on the submitting domain and
    measured at pickup on a worker. The event is ints stored into
    preallocated columns, so nothing reaches the major heap as long as
    [phase] is a long-lived string. Uses the calling domain's current
    request id unless [request_id] is given. It feeds no histogram: the
    caller that measured the interval records its own metric
    ([exec.queue_wait.ns], [net.request.ns]). No-op while tracing is
    off. *)

(** {1 The ring} *)

val events : unit -> event list
(** The surviving events of every domain's ring, merged, oldest first
    (by [seq]). Each domain retains at most the {!set_capacity} bound
    of events. Safe while other domains push: a ring's owner marks a
    push begun before it writes the slot's columns and finished after,
    and a reader keeps only the slots that no push begun since its
    copy can have touched, so every returned event is whole. *)

val clear : unit -> unit

val set_capacity : int -> unit
(** Replaces the rings (discarding recorded events); the capacity is
    per domain. Default 4096. Raises [Invalid_argument] when not
    positive. *)

val span_histogram : string -> string
(** [span_histogram phase] is the name of the duration histogram the
    phase feeds in {!Metrics.default} ([span.<phase>.ns]). *)

val span_blocks_histogram : string -> string
(** The blocks-per-span histogram name ([span.<phase>.blocks]). *)

val now_ns : unit -> int
(** The process's one clock, in nanoseconds: [CLOCK_MONOTONIC] plus a
    wall-time offset read once at process start. It never steps, so
    differences are durations and absolute values serve as deadlines;
    the offset keeps stamps comparable across processes, which is how
    a client's spans stitch with a server's. *)
