(** Axis-aligned bounding boxes (substrate for the R-tree baseline). *)

type t = { minx : float; miny : float; maxx : float; maxy : float }

val make : minx:float -> miny:float -> maxx:float -> maxy:float -> t
(** Raises [Invalid_argument] on an inverted box. *)

val of_segment : Segment.t -> t
val of_vquery : Vquery.t -> t

val union : t -> t -> t
val intersects : t -> t -> bool
val contains : t -> t -> bool
val area : t -> float

val enlargement : t -> t -> float
(** [enlargement box extra]: area growth of [box] if extended to cover
    [extra]. *)

val center : t -> float * float
val pp : Format.formatter -> t -> unit
