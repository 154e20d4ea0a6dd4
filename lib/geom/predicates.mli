(** Exact geometric predicates over integer coordinates.

    Workload generators emit segments on an integer grid precisely so
    that the NCT property (non-crossing, touching allowed) can be
    *certified* with exact arithmetic rather than trusted. Coordinates
    must stay below 2^30 in magnitude so that the 2x2 determinants fit
    in a native [int]. *)

type ipoint = int * int
type iseg = ipoint * ipoint

val orient : ipoint -> ipoint -> ipoint -> int
(** Sign of the cross product [(b - a) x (c - a)]: [+1] if [c] is left
    of the directed line [a]->[b], [-1] if right, [0] if collinear. *)

val crosses : iseg -> iseg -> bool
(** True iff the pair violates the NCT property: the segments intersect
    at a point interior to both, or they are collinear and overlap in
    more than a single point. Touching (shared endpoint, or an endpoint
    in the other's interior) is allowed and returns [false]. *)

val intersect : iseg -> iseg -> bool
(** Closed intersection test (touching counts). *)

val nct_set : iseg array -> bool
(** O(n^2) certification that no pair crosses. Tests only. *)

val of_segment : Segment.t -> iseg
(** Converts a float segment whose coordinates are exact integers.
    Raises [Invalid_argument] otherwise. *)
