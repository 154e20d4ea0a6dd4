(** Generalized vertical query segments.

    The paper's query is a *generalized segment* with a fixed angular
    coefficient — after the coordinate change of {!Transform} this is
    always a vertical line, ray, or segment. A query is the abscissa [x]
    together with a closed ordinate range [\[ylo, yhi\]]; rays and lines
    use infinite bounds, so all three query kinds share one
    representation and one evaluation path. *)

type t = private { x : float; ylo : float; yhi : float }

val segment : x:float -> ylo:float -> yhi:float -> t
(** Raises [Invalid_argument] if [ylo > yhi] or a bound is NaN. *)

val ray_up : x:float -> ylo:float -> t
(** [{x} × [ylo, +∞)]. *)

val ray_down : x:float -> yhi:float -> t
(** [{x} × (-∞, yhi]]. *)

val line : x:float -> t
(** The full vertical line: a stabbing query. *)

val matches : t -> Segment.t -> bool
(** Closed-intersection test between the query and a segment; this is
    the oracle every index is tested against. Touching counts as
    intersecting, consistently with NCT semantics. *)

val pp : Format.formatter -> t -> unit
