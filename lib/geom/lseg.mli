(** Line-based segments in a canonical frame (Section 2 of the paper).

    A set of segments is *line-based* when every segment has an endpoint
    on a common base line and all segments lie in the same half-plane.
    This module fixes a canonical frame: the base line is the axis
    [u = 0], segments extend into [u >= 0]. A segment is then the pair of
    its base ordinate [base_v] (position of the on-line endpoint along
    the base line) and its far endpoint [(far_u, far_v)].

    Both orientations used by the two-level structures map here:
    - a vertical base line [x = xb] with segments to its left/right
      ([u] = distance from the line, [v] = y);
    - the horizontal base line of the paper's figures
      ([u] = height above the line, [v] = x).

    Queries are segments parallel to the base line: the line [u = uq]
    restricted to [v ∈ [vlo, vhi]].

    The central order fact (used by [Find]/[Report], proved by the
    QCheck suite): among mutually non-crossing line-based segments that
    reach depth [uq], the order of crossing positions [cross_v] at
    [u = uq] equals the order of base positions [base_v]. *)

type t = private { base_v : float; far_u : float; far_v : float; id : int }

val make : ?id:int -> base_v:float -> far_u:float -> far_v:float -> unit -> t
(** Raises [Invalid_argument] if [far_u < 0] or any coordinate is NaN. *)

type query = { uq : float; vlo : float; vhi : float }

val query : uq:float -> vlo:float -> vhi:float -> query
(** Raises [Invalid_argument] if [uq < 0] or [vlo > vhi]. *)

val reaches : t -> float -> bool
(** [reaches s uq]: the segment crosses the line [u = uq]
    (i.e. [far_u >= uq]). *)

val cross_v : t -> float -> float
(** Crossing position along [v] at depth [uq]; requires [reaches s uq].
    At [uq = 0] this is [base_v]. *)

val matches : query -> t -> bool
(** The naive oracle: [reaches] and [cross_v] within the query range. *)

val slope : t -> float
(** Lateral drift per unit of depth: [(far_v - base_v) / far_u]
    (0 when [far_u = 0]). *)

val compare_key : t -> t -> int
(** The total left-to-right order [(base_v, slope, id)] under which, for
    a mutually non-crossing set, crossing positions at any depth are
    non-decreasing. This is the BST key of the external PSTs: segments
    sharing a base point fan out by slope, so base position alone would
    not order their crossings. *)

val compare_far_u : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {1 Conversions from plane segments} *)

val left_of_vline : base_x:float -> Segment.t -> t
(** Left part of a segment w.r.t. the vertical line [x = base_x]: base
    point at the line, far point at the segment's left endpoint.
    Requires [spans_x s base_x] and [s] not vertical. *)

val right_of_vline : base_x:float -> Segment.t -> t
(** Symmetric right part. *)

val above_hline : base_y:float -> Segment.t -> t
(** For a segment with one endpoint on [y = base_y] and the other at
    [y >= base_y] (the paper's drawing convention). *)

val to_segment_above : base_y:float -> t -> Segment.t
(** Inverse of [above_hline] (for tests and figures). *)
