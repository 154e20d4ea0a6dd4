open Segdb_io

(** Static sorted block lists with a hierarchical index and a
    bidirectional leaf chain — the storage for multislab lists.

    Built once from an array the caller has ordered; afterwards supports
    - [search]: locate the first entry satisfying a monotone predicate
      in [O(log_C L)] I/Os (the index levels carry whole entries, so the
      predicate can evaluate geometry — unlike a key-only B+-tree);
    - positional access and bounded walks in both directions, one I/O
      per crossed block — what fractional-cascading landings need.

    Indices are global 0-based positions, stable for the lifetime of the
    list (the structure is immutable after build). *)

type pos = { paddr : int; pbase : int; poffset : int }
(** A stable physical position: block address, the block's first global
    index, and the offset inside it. [poffset] may equal the block
    length (one-past-the-end of the last block). Positions are what
    fractional-cascading landings store: walks starting from a [pos]
    touch no index blocks. *)

module Make (E : sig
  type t
end) : sig
  type t

  val build :
    ?block_capacity:int ->
    pool:Block_store.Pool.t ->
    stats:Io_stats.t ->
    E.t array ->
    t
  (** [block_capacity] (default 64) entries per block. The array is
      copied; the caller guarantees it is sorted in the intended
      order. *)

  val length : t -> int
  val block_count : t -> int

  val get : t -> int -> E.t
  (** Random access; charges the index descent plus the data block.
      Raises [Invalid_argument] out of bounds. *)

  val search : t -> cmp:(E.t -> int) -> int
  (** [search t ~cmp] returns the smallest position [i] with
      [cmp (get t i) >= 0], or [length t] if none. [cmp] must be
      monotone non-decreasing along the list. Costs one index descent. *)

  val iter_forward : t -> int -> (int -> E.t -> [ `Continue | `Stop ]) -> unit
  (** From position [i] (inclusive) rightward; positions past the end
      are permitted and yield nothing. *)

  val pos_of : t -> int -> pos
  (** Physical position of global index [i] (0 <= i <= length; [length]
      maps one past the last block's entries). Pays an index descent —
      meant for build time. Raises [Invalid_argument] out of range or
      on an empty list. *)

  val walk_forward : t -> pos -> (E.t -> [ `Continue | `Stop ]) -> unit
  (** Entries from the position (inclusive) rightward; O(1) to start. *)

  val walk_backward : t -> pos -> (E.t -> [ `Continue | `Stop ]) -> unit
  (** Entries strictly before the position, leftward; O(1) to start. *)

  val to_array : t -> E.t array
  (** For tests and rebuilds. *)

  val free : t -> unit
  (** Releases all blocks. The list must not be used afterwards. *)
end
