open Segdb_geom

(** Plain-text interchange format for segment sets.

    One segment per line: [id x1 y1 x2 y2], whitespace-separated; blank
    lines and [#] comments are ignored. The format is what the CLI's
    [generate] emits and [query]/[stats] consume. *)

val save : string -> Segment.t array -> unit

val load : string -> Segment.t array
(** Raises [Failure] with a line-numbered message on malformed input. *)

val to_channel : out_channel -> Segment.t array -> unit

(** {1 Binary form}

    The persistence layer (snapshots, WAL records) stores segments in
    the fixed binary layout [id: u64 | x1 y1 x2 y2: f64], little-endian
    — 40 bytes per segment, exact float round-trips. *)

val codec : Segment.t Segdb_io.Codec.t
val array_codec : Segment.t array Segdb_io.Codec.t
