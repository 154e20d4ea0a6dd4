(** Named metrics: counters, gauges and log-bucketed histograms.

    One {!t} is a registry; {!default} is the process-wide one that the
    I/O stack's probe sites record into. Handles ([counter], [gauge])
    are resolved once and bumped with a single atomic add, so a probe
    behind {!Control.enabled} costs nothing measurable when off and a
    couple of atomic operations when on.

    Registries are mergeable ({!merge_into}): a domain may record into
    a private registry and fold it into a shared one; merging is
    associative, so the fold order does not matter. *)

type t

type counter = int Atomic.t
type gauge = int Atomic.t

val create : unit -> t

val default : t
(** The process-wide registry used by built-in instrumentation. *)

val counter : t -> string -> counter
(** Get-or-create; the handle stays valid for the registry's life. *)

val gauge : t -> string -> gauge

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set_gauge : gauge -> int -> unit

val observe : t -> string -> int -> unit
(** Records one sample into the named histogram (created on first use).
    Thread-safe: serialized on the registry lock. *)

val histogram : t -> string -> Histogram.t option
(** A copy of the named histogram, if it exists. *)

val counters : t -> (string * int) list
(** Name-sorted snapshot. *)

val gauges : t -> (string * int) list
val histograms : t -> (string * Histogram.t) list

val merge_into : into:t -> t -> unit
(** Adds counters and gauges by name and merges histograms pointwise;
    [src] is unchanged. *)

val reset : t -> unit
(** Zeroes every metric, keeping handles valid. *)

(** {1 Runtime gauges}

    Gauges are published by the layer that owns the state they
    describe, right before a reader renders the registry: the server
    sets its pool, connection and replication gauges when it answers a
    [/metrics] scrape or a wire [stats] frame, after calling
    {!refresh_gauges} for the process-wide ones. Rates and windowed
    percentiles are not kept here: whoever reads two scrapes derives
    them from the counters and histogram buckets. *)

val refresh_gauges : unit -> unit
(** Publishes the runtime gauges into {!default}:
    [runtime.heap_words], [runtime.minor_collections],
    [runtime.major_collections], [runtime.compactions] and
    [runtime.open_fds]. *)
