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

(** {1 Gauge sources}

    Some gauges describe state that lives above this library: pool
    occupancy, connection counts, replication standing. A higher layer
    {!register_source}s a closure instead of pushing values, and every
    reader that wants live gauges (a [/metrics] scrape, a wire [stats]
    frame) calls {!refresh_gauges} right before rendering. Rates and
    windowed percentiles are not kept here: whoever reads two scrapes
    derives them from the counters and histogram buckets. *)

val register_source : string -> (unit -> (string * int) list) -> unit
(** [register_source name f] adds a gauge provider: on every
    {!refresh_gauges}, [f ()] runs and each [(gauge_name, value)] pair
    is published into {!default}. Re-registering a name replaces the
    previous source. [f] runs on whichever domain calls
    {!refresh_gauges} and must be thread-safe; an exception from [f]
    skips that source for the pass. *)

val unregister_source : string -> unit

val refresh_gauges : unit -> unit
(** One synchronous pass: the runtime gauges ([runtime.heap_words],
    [runtime.minor_collections], [runtime.major_collections],
    [runtime.compactions], [runtime.open_fds]) plus every registered
    source, published into {!default}. *)
