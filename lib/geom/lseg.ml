type t = { base_v : float; far_u : float; far_v : float; id : int }

let make ?(id = -1) ~base_v ~far_u ~far_v () =
  if Float.is_nan base_v || Float.is_nan far_u || Float.is_nan far_v then
    invalid_arg "Lseg.make: NaN coordinate";
  if far_u < 0.0 then invalid_arg "Lseg.make: far_u must be >= 0";
  { base_v; far_u; far_v; id }

type query = { uq : float; vlo : float; vhi : float }

let query ~uq ~vlo ~vhi =
  if uq < 0.0 then invalid_arg "Lseg.query: uq must be >= 0";
  if vlo > vhi then invalid_arg "Lseg.query: vlo > vhi";
  { uq; vlo; vhi }

let reaches s uq = s.far_u >= uq

let cross_v s uq =
  if uq = 0.0 || s.far_u = 0.0 then s.base_v
  else s.base_v +. ((s.far_v -. s.base_v) *. (uq /. s.far_u))

let matches q s =
  reaches s q.uq
  &&
  let v = cross_v s q.uq in
  q.vlo <= v && v <= q.vhi

let slope s = if s.far_u = 0.0 then 0.0 else (s.far_v -. s.base_v) /. s.far_u

let compare_key a b =
  let c = compare a.base_v b.base_v in
  if c <> 0 then c
  else
    let c = compare (slope a) (slope b) in
    if c <> 0 then c else compare a.id b.id

let compare_far_u a b =
  let c = compare a.far_u b.far_u in
  if c <> 0 then c else compare a.id b.id

let equal a b =
  a.id = b.id && a.base_v = b.base_v && a.far_u = b.far_u && a.far_v = b.far_v

let pp ppf s =
  Format.fprintf ppf "L#%d[v0=%g -> (u=%g, v=%g)]" s.id s.base_v s.far_u s.far_v

let left_of_vline ~base_x (s : Segment.t) =
  if not (Segment.spans_x s base_x) then invalid_arg "Lseg.left_of_vline: no crossing";
  if Segment.is_vertical s then invalid_arg "Lseg.left_of_vline: vertical segment";
  make ~id:s.id ~base_v:(Segment.y_at s base_x) ~far_u:(base_x -. s.x1) ~far_v:s.y1 ()

let right_of_vline ~base_x (s : Segment.t) =
  if not (Segment.spans_x s base_x) then invalid_arg "Lseg.right_of_vline: no crossing";
  if Segment.is_vertical s then invalid_arg "Lseg.right_of_vline: vertical segment";
  make ~id:s.id ~base_v:(Segment.y_at s base_x) ~far_u:(s.x2 -. base_x) ~far_v:s.y2 ()

let above_hline ~base_y (s : Segment.t) =
  let on_base y = y = base_y in
  if on_base s.y1 && s.y2 >= base_y then
    make ~id:s.id ~base_v:s.x1 ~far_u:(s.y2 -. base_y) ~far_v:s.x2 ()
  else if on_base s.y2 && s.y1 >= base_y then
    make ~id:s.id ~base_v:s.x2 ~far_u:(s.y1 -. base_y) ~far_v:s.x1 ()
  else invalid_arg "Lseg.above_hline: segment is not line-based on this line"

let to_segment_above ~base_y s =
  Segment.make ~id:s.id (s.base_v, base_y) (s.far_v, base_y +. s.far_u)
