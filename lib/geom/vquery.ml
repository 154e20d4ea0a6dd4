type t = { x : float; ylo : float; yhi : float }

let segment ~x ~ylo ~yhi =
  if Float.is_nan x || Float.is_nan ylo || Float.is_nan yhi then
    invalid_arg "Vquery.segment: NaN bound";
  if ylo > yhi then invalid_arg "Vquery.segment: ylo > yhi";
  { x; ylo; yhi }

let ray_up ~x ~ylo = segment ~x ~ylo ~yhi:infinity
let ray_down ~x ~yhi = segment ~x ~ylo:neg_infinity ~yhi
let line ~x = segment ~x ~ylo:neg_infinity ~yhi:infinity

let matches q (s : Segment.t) =
  Segment.spans_x s q.x
  &&
  if Segment.is_vertical s then s.y1 <= q.yhi && s.y2 >= q.ylo
  else
    let y = Segment.y_at s q.x in
    q.ylo <= y && y <= q.yhi

let pp ppf q = Format.fprintf ppf "VS(x=%g, y in [%g, %g])" q.x q.ylo q.yhi
