open Segdb_io

(** External-memory B+-trees over the simulated block store.

    The substrate the paper assumes from [7]: `O(log_B n + t)` range
    queries, `O(n)` blocks, `O(log_B n)` updates. Two structures use
    it: the external interval tree ([Segdb_itree]), for its slab and
    multislab lists, and the segment tree [G] ([Segdb_segtree]), for
    the overlays that hold inserted fragments until a rebuild.

    One tree node occupies exactly one block; the [fanout] parameter
    plays the role of [B]. Leaves are chained for ordered traversal. *)

module Make (K : sig
  type t

  val compare : t -> t -> int
end) (V : sig
  type t
end) : sig
  type t
  type key = K.t
  type value = V.t

  val create :
    ?fanout:int ->
    pool:Block_store.Pool.t ->
    stats:Io_stats.t ->
    unit ->
    t
  (** An empty tree. [fanout] (default 64) is the maximal number of
      entries per node; minimum occupancy is [fanout / 2]. *)

  val size : t -> int
  val is_empty : t -> bool
  val block_count : t -> int

  val insert : t -> key -> value -> unit
  (** Replaces the value if the key is present. *)

  val delete : t -> key -> bool
  (** Returns whether the key was present. Rebalances with borrow/merge
      so occupancy invariants are preserved. *)

  val iter_range : t -> lo:key option -> hi:key option -> (key -> value -> unit) -> unit
  (** In-order over keys in [\[lo, hi\]] (closed; [None] = unbounded),
      walking the leaf chain. *)

  val iter_from : t -> key -> (key -> value -> [ `Continue | `Stop ]) -> unit
  (** Starts at the first key [>= key] and walks right until the
      callback stops or keys are exhausted. The caller pays one descent
      plus one I/O per visited leaf — the access pattern fractional
      cascading optimizes. *)

  val iter_from_pred : t -> pred:(key -> bool) -> (key -> value -> [ `Continue | `Stop ]) -> unit
  (** Like [iter_from], but the start position is the first key
      satisfying [pred], which must be monotone along the key order
      (all false entries precede all true ones). Useful when keys carry geometry and the boundary
      is defined by evaluation rather than by a comparable constant
      (e.g. "first fragment crossing [x] above [y]"). *)

  val check_invariants : t -> bool
  (** Key order, occupancy bounds, uniform leaf depth, leaf-chain
      consistency. Test use. *)
end
