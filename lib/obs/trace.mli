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

    All of it is inert while {!Control.enabled} is false: [enter]
    returns a shared dummy, [exit] returns immediately, nothing is
    allocated or locked. *)

type event = {
  seq : int;  (** monotone across the process; survives wraparound *)
  phase : string;
  depth : int;  (** nesting depth on the recording domain *)
  t0_ns : int;  (** wall-clock start, nanoseconds *)
  dur_ns : int;
  blocks : int;  (** block reads charged during the span *)
  request_id : int;  (** request the span belongs to; 0 = none *)
  dom : int;  (** id of the domain that recorded the span *)
}

type span

val none : span
(** The disabled span; exiting it is a no-op. *)

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

val enter : ?blocks:int -> string -> span
(** Opens a span for [phase]. [blocks] is the caller's current
    block-read counter (see {!Segdb_io.Probe} for the helper that picks
    the right one); the matching [exit] turns the pair into a delta. *)

val exit : ?blocks:int -> span -> unit
(** Closes the span: records the event in the ring and feeds the
    per-phase histograms. Safe from any domain. *)

val with_span : ?blocks:(unit -> int) -> string -> (unit -> 'a) -> 'a
(** [with_span phase f] wraps [f] in a span, sampling [blocks] at entry
    and exit. When tracing is off this is exactly [f ()]. *)

val record :
  ?request_id:int -> ?blocks:int -> t0_ns:int -> dur_ns:int -> string -> unit
(** [record ~t0_ns ~dur_ns phase] injects a completed event directly,
    for intervals whose endpoints were measured out-of-band — e.g. a
    queue wait stamped on the submitting domain and measured at pickup
    on a worker. Uses the calling domain's current request id unless
    [request_id] is given, and feeds the same per-phase histograms as
    a span. No-op while tracing is off. *)

(** {1 The ring} *)

val events : unit -> event list
(** The surviving events of every domain's ring, merged, oldest first
    (by [seq]). Each domain retains at most the {!set_capacity} bound
    of events. *)

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
(** The clock spans are stamped with (wall time in nanoseconds). *)
