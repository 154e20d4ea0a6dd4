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

(** {1 Reading the exposition back}

    Rates and windowed percentiles are derived by whoever reads two
    scrapes of {!prometheus} output — [segdb_cli top], a Prometheus
    server — not kept by the process being scraped. *)

type scrape = {
  values : (string * float) list;
      (** plain samples keyed by metric name, labels stripped *)
  buckets : (string * float * float) list;
      (** histogram rows: (base name, [le] bound, cumulative count) *)
}

val parse_prometheus : string -> scrape
(** Parses exposition text (as {!prometheus} writes it, with or
    without labels). Comment lines and unparsable samples are
    skipped. *)

val value : scrape -> string -> float option
(** The sample named [name] (e.g. ["segdb_net_requests"]). *)

val delta : scrape -> scrape -> string -> float option
(** [delta prev cur name]: how far a counter moved between two
    scrapes. A counter that went backwards (a registry reset or a
    restart) reads 0, never a negative delta. [None] unless both
    scrapes carry the sample. *)

val window_percentile : scrape -> scrape -> string -> float -> float option
(** [window_percentile prev cur name p]: the [p]-quantile of the
    samples histogram [name] received between the two scrapes, by
    diffing the cumulative bucket series and interpolating inside the
    landing bucket. [None] when the window holds no samples. *)

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
