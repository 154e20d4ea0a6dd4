(** Bounded LRU map over integer keys, used as the buffer pool of
    {!Block_store} and as each {!Read_context}'s shard.

    Operations are O(1): a hash table maps keys to slots, and a
    doubly-linked recency list runs through int arrays of slot indexes,
    so a touch stores only ints. On overflow the least-recently-used
    binding is evicted and handed to the caller's callback (which
    write-back logic hooks into). *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive. *)

val capacity : 'a t -> int
val length : 'a t -> int

val find : 'a t -> int -> 'a option
(** Touches the binding (moves it to most-recently-used). *)

val mem : 'a t -> int -> bool
(** Does not touch recency. *)

val put : 'a t -> int -> 'a -> on_evict:(int -> 'a -> unit) -> unit
(** Inserts or replaces the binding and marks it most-recently-used.
    If insertion overflows the capacity the LRU binding is removed and
    passed to [on_evict] (never the key just inserted). *)

val remove : 'a t -> int -> 'a option
(** Removes and returns the binding without calling any eviction hook. *)

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Iterates from most- to least-recently-used. *)
