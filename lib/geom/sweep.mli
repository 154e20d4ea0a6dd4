(** Plane-sweep crossing detection.

    [find_crossing segs] reports a pair of segments that violates the
    NCT property (properly crossing interiors, or collinear overlap in
    more than a point), or [None]. This is the O(n log n) tool that
    makes NCT certification affordable at index scale, where the O(n²)
    pairwise check of {!Predicates.nct_set} is not.

    Method: a left-to-right sweep keeps the active segments ordered by
    their ordinate at the sweep abscissa in the Stdlib's balanced [Map];
    a pair is *tested* when it becomes adjacent (on insertion or after a
    removal), and verticals are tested against the actives spanning
    their abscissa. Every test is decided by an exact verdict — the
    integer predicates when all coordinates are integral, a strict
    float orientation test otherwise — so a reported pair always truly
    crosses. Completeness follows the classical argument: before the
    leftmost crossing the status order is correct, and the crossing
    pair becomes adjacent no later than that point. Inputs whose
    float-ordering degenerates exactly at a crossing can, in principle,
    escape the float verdict; integer inputs are decided exactly. *)

val find_crossing : Segment.t array -> (Segment.t * Segment.t) option
(** A candidate pair is decided by {!Predicates.crosses} when every
    coordinate is integral, else by a strict float test. *)

val verify_nct : Segment.t array -> bool
(** [find_crossing segs = None]. *)
