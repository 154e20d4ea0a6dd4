type t = { c : float; s : float }

let rotation ~angle = { c = cos angle; s = sin angle }

(* A direction (1, m) must map to (0, _): choose angle a with
   cos a = m / h, sin a = 1 / h where h = sqrt (1 + m^2); then
   (1, m) |-> (cos a - m sin a, sin a + m cos a) = (0, h). *)
let to_vertical ~slope =
  let h = sqrt (1.0 +. (slope *. slope)) in
  { c = slope /. h; s = 1.0 /. h }

let point t (x, y) = ((t.c *. x) -. (t.s *. y), (t.s *. x) +. (t.c *. y))

let segment t (sg : Segment.t) =
  Segment.make ~id:sg.id (point t (sg.x1, sg.y1)) (point t (sg.x2, sg.y2))

let vquery_of_segment t p q =
  let x1, y1 = point t p and x2, y2 = point t q in
  let x = 0.5 *. (x1 +. x2) in
  Vquery.segment ~x ~ylo:(Float.min y1 y2) ~yhi:(Float.max y1 y2)
