type t = { minx : float; miny : float; maxx : float; maxy : float }

let make ~minx ~miny ~maxx ~maxy =
  if minx > maxx || miny > maxy then invalid_arg "Bbox.make: inverted box";
  { minx; miny; maxx; maxy }

let of_segment (s : Segment.t) =
  { minx = Segment.min_x s; miny = Segment.min_y s; maxx = Segment.max_x s; maxy = Segment.max_y s }

let of_vquery (q : Vquery.t) = { minx = q.x; miny = q.ylo; maxx = q.x; maxy = q.yhi }

let union a b =
  {
    minx = Float.min a.minx b.minx;
    miny = Float.min a.miny b.miny;
    maxx = Float.max a.maxx b.maxx;
    maxy = Float.max a.maxy b.maxy;
  }

let intersects a b =
  a.minx <= b.maxx && b.minx <= a.maxx && a.miny <= b.maxy && b.miny <= a.maxy

let contains outer inner =
  outer.minx <= inner.minx && outer.miny <= inner.miny && outer.maxx >= inner.maxx
  && outer.maxy >= inner.maxy

let area b = (b.maxx -. b.minx) *. (b.maxy -. b.miny)

let enlargement box extra = area (union box extra) -. area box

let center b = (0.5 *. (b.minx +. b.maxx), 0.5 *. (b.miny +. b.maxy))

let pp ppf b = Format.fprintf ppf "[%g,%g]x[%g,%g]" b.minx b.maxx b.miny b.maxy
