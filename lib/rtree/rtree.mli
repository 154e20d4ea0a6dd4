open Segdb_io
open Segdb_geom

(** R-tree over segments — the evaluation baseline.

    The paper's structures have worst-case output-sensitive bounds; the
    R-tree is what practitioners actually deploy for this niche (the
    novelty calibration notes "spatial indexes cover practical needs").
    Benches compare both: the R-tree has no output-sensitivity guarantee
    for vertical-segment queries, and its behaviour on skewed inputs is
    exactly the gap the paper's structures close.

    Implementation: Sort-Tile-Recursive bulk loading, Guttman
    least-enlargement descent with quadratic splits for insertion, one
    node per block. *)

type t

val create :
  ?node_capacity:int -> pool:Block_store.Pool.t -> stats:Io_stats.t -> unit -> t

val bulk_load :
  ?node_capacity:int ->
  pool:Block_store.Pool.t ->
  stats:Io_stats.t ->
  Segment.t array ->
  t
(** STR packing: full leaves, minimal overlap on uniform data. *)

val insert : t -> Segment.t -> unit

val delete : t -> Segment.t -> bool
(** Removes the segment (matched by id and geometry). Emptied nodes are
    pruned and a single-child root is collapsed; underfull interior
    nodes are tolerated (Guttman's re-insertion pass is omitted). *)

val size : t -> int
val block_count : t -> int

val query : t -> Vquery.t -> f:(Segment.t -> unit) -> unit
(** Exact answers: bounding-box descent plus an exact intersection
    filter at the leaves. *)

val query_list : t -> Vquery.t -> Segment.t list

val check_invariants : t -> bool
(** Bounding boxes cover children, occupancy bounds, uniform depth. *)
