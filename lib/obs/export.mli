(** Render a metrics registry (and trace dumps) for humans and tools. *)

val text : Metrics.t -> string
(** Aligned tables: counters/gauges, then histogram summaries. *)

val json : Metrics.t -> string
(** One JSON object: [{"counters": {...}, "gauges": {...},
    "histograms": {...}}]. Histogram entries carry count/sum/min/max/
    mean/p50/p90/p99 plus the non-empty buckets as [[lo, hi, count]]
    triples. *)

val json_escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash and control characters escaped. *)

val prometheus : ?labels:(string * string) list -> Metrics.t -> string
(** Prometheus text exposition format. Names are sanitized to
    [[A-Za-z0-9_]] and prefixed [segdb_]; histograms become cumulative
    [_bucket{le="..."}] series with [_sum] and [_count]. [labels] are
    attached to every sample (the server adds its listen address this
    way); label {e names} are sanitized like metric names and label
    {e values} are escaped per the exposition format (backslash, double
    quote and newline), so an arbitrary address or path cannot corrupt
    the output. *)

val trace_text : Trace.event list -> string
(** The span dump: one line per event, indented by nesting depth. *)

val timeline : Trace.event list -> string
(** The stitched per-request view: events (possibly merged from
    several processes — a client's ring plus what a server returned
    over the wire) ordered by wall-clock start, with offsets relative
    to the earliest event and the recording domain shown per line. *)

val trace_json : Trace.event list -> string
(** Chrome trace-event JSON (complete ["X"] events, timestamps in
    microseconds), loadable in Perfetto or [chrome://tracing]. Request
    ids map to [pid] and recording domains to [tid], so one request
    renders as a process with one track per domain. *)

val phase_summary : Metrics.t -> string
(** Per-phase percentile table built from the [span.<phase>.ns] /
    [span.<phase>.blocks] histogram pairs in the registry. *)
