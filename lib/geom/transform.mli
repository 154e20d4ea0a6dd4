(** Rigid rotations reducing fixed-slope generalized queries to vertical
    ones.

    The paper treats only vertical query segments, remarking that "if the
    query segment is not vertical, coordinate axes can be appropriately
    rotated". This module implements that remark: given the common slope
    of all query segments, [to_vertical] rotates the plane so those
    queries become vertical, and the rotated database can be indexed by
    any {!Segdb_core} structure. *)

type t
(** A rotation around the origin. *)

val rotation : angle:float -> t
(** Counter-clockwise rotation by [angle] radians. *)

val to_vertical : slope:float -> t
(** The rotation mapping every line of slope [slope] to a vertical
    line. *)

val point : t -> float * float -> float * float

val segment : t -> Segment.t -> Segment.t
(** Rotates both endpoints; the id is preserved. *)

val vquery_of_segment : t -> (float * float) -> (float * float) -> Vquery.t
(** [vquery_of_segment t p q] rotates the query segment [pq] — which must
    have the slope the transform was built for — and returns the
    resulting vertical query. Tiny float asymmetries between the two
    rotated abscissas are averaged away. *)
