(** Structured logging: leveled key/value events with nanosecond
    timestamps and domain tags.

    Logging is {e off by default} and the disabled path costs one
    [Atomic.get]: field lists are passed as thunks, so nothing is
    built below the threshold. Call sites hot enough to care about the
    thunk's own closure allocation should guard on {!would_log}.

    This is for rare, narratable events — a connection accepted, a
    server draining, a request refused, a WAL tail truncated. Per-
    operation measurements belong in {!Metrics}, per-phase intervals
    in {!Trace}. *)

type level = Debug | Info | Warn | Error

val set_level : level option -> unit
(** [set_level (Some l)] enables events at [l] and above; [None]
    (the default) disables logging entirely. *)

val would_log : level -> bool
(** One [Atomic.get]: would an event at this level be emitted? *)

(** {1 Fields} *)

type value = S of string | I of int | F of float | B of bool

type field = string * value

val s : string -> string -> field
val i : string -> int -> field
val f : string -> float -> field
val b : string -> bool -> field

(** {1 Events} *)

type event = {
  ts_ns : int;  (** wall clock, ns since epoch *)
  lvl : level;
  dom : int;  (** id of the emitting domain *)
  comp : string;  (** component tag: "server", "exec", "wal", ... *)
  msg : string;
  fields : field list;
}

val log : level -> comp:string -> string -> (unit -> field list) -> unit
(** [log l ~comp msg fields] emits an event when [l] clears the
    threshold; [fields] is only forced then. *)

val debug : comp:string -> string -> (unit -> field list) -> unit
val info : comp:string -> string -> (unit -> field list) -> unit
val warn : comp:string -> string -> (unit -> field list) -> unit
val error : comp:string -> string -> (unit -> field list) -> unit

val render : event -> string
(** One logfmt line: [ts=… level=… dom=… comp=… msg="…" k=v …] —
    string values are quoted/escaped when they contain spaces, quotes,
    [=] or control bytes. *)

(** {1 Sinks}

    Emission fans out to every configured sink under one lock. *)

val set_stderr : bool -> unit
(** Emit rendered lines to stderr (default [true]). *)

val set_ring : int -> unit
(** Keep the last [n] events in memory ([0], the default, disables
    the ring). *)

val ring_events : unit -> event list
(** The ring's retained events, oldest first. *)

val configure_from_env : unit -> unit
(** Read [SEGDB_LOG] (a level name, or [off]), [SEGDB_LOG_FILE]
    (a path) and [SEGDB_LOG_STDERR] ([0] to silence stderr). Unset
    variables leave the current configuration untouched. *)
