(** A bounded buffer that overwrites its oldest element when full —
    the store behind [Log]'s ring sink and the slow-query log. Trace
    events do not use it: each domain's trace ring is unboxed columns
    (see [Segdb_obs.Trace]), because a boxed slot here promotes every
    pushed element to the major heap.

    Unsynchronised: each caller pushes and reads under its own lock. *)

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
