(** The slow-query log: a bounded in-memory ring of structured records
    for requests whose wall time cleared a threshold.

    Disabled by default; the hot-path check ({!enabled}, or the
    threshold compare inside {!note}) is one [Atomic.get]. A threshold
    of [0] ms records {e every} request — handy for smoke tests and
    short captures. *)

type entry = {
  request_id : int;
  query : string;  (** rendering of the (first) query rect *)
  queries : int;  (** batch size *)
  outcome : string;  (** "ok", "degraded", "deadline", ... *)
  wall_ns : int;  (** submit-to-completion wall time *)
  queue_wait_ns : int;  (** of which: waiting for a worker *)
  blocks : int;  (** block reads charged to the request *)
  cache_hits : int;
  cache_misses : int;
  at_ns : int;  (** completion wall-clock stamp, ns since epoch *)
}

val enabled : unit -> bool
(** One [Atomic.get]: is a threshold armed? *)

val set_threshold_ms : int -> unit
(** Negative disables the log; [0] records everything; positive
    records requests at least that many milliseconds of wall time. *)

val threshold_ms : unit -> int
(** The armed threshold, or [-1] when disabled. *)

val note : wall_ns:int -> (unit -> entry) -> unit
(** [note ~wall_ns mk] records [mk ()] iff a threshold is armed and
    [wall_ns] clears it; [mk] is only forced then. *)

val entries : unit -> entry list
(** Retained entries, oldest first. *)

val clear : unit -> unit

val set_capacity : int -> unit
(** Resize the ring (default 128), dropping retained entries. Raises
    [Invalid_argument] when not positive. *)

val to_text : entry list -> string
(** Aligned table (request ids in hex), or a placeholder line when
    empty. *)

val to_json : entry list -> string
(** A JSON array of records, one object per entry. *)

val configure_from_env : unit -> unit
(** Read [SEGDB_SLOW_MS] (milliseconds; negative disables). Unset or
    unparsable leaves the current threshold. *)
