open Segdb_io
open Segdb_geom

(** The structure [G] of Section 4.2: a segment tree over the slabs of a
    first-level node, storing *long fragments* (pieces of NCT segments
    whose endpoints lie exactly on slab boundaries), with the fractional
    cascading of Section 4.3 connecting the multislab lists of adjacent
    levels.

    Every internal node covers a contiguous range of gaps (slabs between
    consecutive boundaries); a fragment spanning boundaries
    [s_a .. s_b] is allocated to the O(log2 b) maximal nodes whose range
    it covers — at most two per level. A node's fragments are kept in a
    {!Packed_list} ordered by their crossing of the node's leftmost
    boundary; since all fragments are mutually non-crossing, this order
    agrees with the vertical order at every abscissa inside the node's
    span, so the fragments hit by a vertical query segment form a
    contiguous run.

    Cascading: each list entry stores the position ("landing") of its
    successor in each child's list — the paper's bridges in the exact
    (d -> 0) limit: instead of copying every (d+1)-th fragment downward
    and tolerating a 2d-entry slack, we precompute the exact merge
    position, which is cheaper in space (two integers per entry, no
    augmented fragments) and never scans non-matching entries: the
    backward walk from a landing visits only reported fragments. A
    query therefore pays one list search at the root of [G] and O(1)
    blocks plus output on every deeper level — the paper's
    [O(log_B n + log2 B + t')] per first-level node. With
    [~cascade:false] every level pays its own list search (the Lemma 4
    regime), which experiment E5 compares. *)

type t

val build :
  ?cascade:bool ->
  ?list_block:int ->
  pool:Block_store.Pool.t ->
  stats:Io_stats.t ->
  boundaries:float array ->
  Segment.t array ->
  t
(** [boundaries] must be >= 2 strictly increasing abscissas; every
    fragment's endpoints must lie exactly on boundaries, spanning at
    least one gap. [list_block] is the block capacity of multislab
    lists (default 64). Raises [Invalid_argument] on violations. *)

val query : t -> x:float -> ylo:float -> yhi:float -> f:(Segment.t -> unit) -> unit
(** Reports each stored fragment intersected by the vertical segment
    [{x} × [ylo, yhi]] exactly once. When [x] equals an interior
    boundary the query walks both adjacent gaps' paths; the right-hand
    one reports only the fragments that start at [x], since every other
    fragment touching [x] covers the left-hand gap. *)

val query_list : t -> x:float -> ylo:float -> yhi:float -> Segment.t list

val size : t -> int
(** Number of fragments stored (each counted once). *)

val stored_entries : t -> int
(** Total list entries across allocation nodes (size x multiplicity). *)

val block_count : t -> int

val guided_levels : t -> int
(** Cumulative count of levels entered through a cascading landing.
    Maintained atomically: counters are the one thing a query is
    allowed to bump, and queries may run from several domains. *)

val fallback_searches : t -> int
(** Cumulative count of levels that needed a full list search (the
    root always does; deeper levels only when a list had no match). *)

val check_invariants : t -> bool

(** {1 Semi-dynamic insertion} *)

val insert : t -> Segment.t -> unit
(** Inserts a long fragment (endpoints on boundaries, spanning at least
    one gap). The fragment goes to dynamic per-node overlay B+-trees
    searched alongside the cascaded lists; when the overlay outgrows the
    static part a doubling rebuild folds it in — the substitute for the
    paper's BB[alpha]-based [G] with incremental bridge maintenance (see
    DESIGN.md). Amortized logarithmic. *)

val delete : t -> Segment.t -> bool
(** Removes a stored fragment. One inserted since the last rebuild is
    deleted from its overlays; one in the packed lists is tombstoned by
    id (filtered from answers at zero I/O cost) and physically purged
    at the next doubling rebuild. Tombstones hide packed entries only,
    so a fragment deleted and then re-inserted under the same id is
    answered again. Returns [false] if the id is already tombstoned and
    no overlay holds it. *)

