(** A bounded buffer that overwrites its oldest element when full —
    the store behind every in-memory record log (trace events, log
    events, slow-query records, sampler snapshots).

    Unsynchronised: each caller keeps its own lock or single-owner
    discipline. {!push} is one slot store plus one counter bump, so an
    owner may push on a hot path; a reader racing the owner sees each
    slot either before or after the store, never torn. *)

type 'a t

val create : int -> 'a t
(** [create capacity]. A capacity of [0] retains nothing: every push
    is dropped. Raises [Invalid_argument] when negative. *)

val push : 'a t -> 'a -> unit
(** Appends, overwriting the oldest element when the ring is full. *)

val to_list : 'a t -> 'a list
(** The retained elements, oldest first. *)

val clear : 'a t -> unit

val resize : 'a t -> int -> unit
(** Changes the capacity, keeping the newest elements that fit. Raises
    [Invalid_argument] when negative. *)
