(* Status order at the current sweep abscissa. The comparator reads the
   module-level sweep position; the classical invariant — the relative
   order of active segments is constant while no crossing has occurred —
   is exactly what makes this sound for *detection*. Not reentrant. *)

let sweep_x = ref 0.0

module Key = struct
  type t = Segment.t

  let compare (a : Segment.t) (b : Segment.t) =
    let x = !sweep_x in
    let c = compare (Segment.y_at a x) (Segment.y_at b x) in
    if c <> 0 then c
    else
      let c = compare (Segment.slope a) (Segment.slope b) in
      if c <> 0 then c else compare a.Segment.id b.Segment.id
end

module Status = Map.Make (Key)

exception Found of Segment.t * Segment.t

let is_integral v = Float.is_integer v && Float.abs v < 1_073_741_823.0

let all_integral segs =
  Array.for_all
    (fun (s : Segment.t) ->
      is_integral s.x1 && is_integral s.y1 && is_integral s.x2 && is_integral s.y2)
    segs

let float_orient (px, py) (qx, qy) (rx, ry) =
  let a = (qx -. px) *. (ry -. py) and b = (qy -. py) *. (rx -. px) in
  let d = a -. b in
  (* relative tolerance: near-degenerate turns count as collinear, so a
     grazing contact is classified as touching (allowed), never as a
     crossing — the verdict stays sound for NCT checking *)
  let eps = 1e-9 *. (Float.abs a +. Float.abs b +. 1e-300) in
  if d > eps then 1 else if d < -.eps then -1 else 0

(* Proper interior crossing with strict float signs; collinear overlaps
   are caught by a separate 1-D check. *)
let float_crosses (a : Segment.t) (b : Segment.t) =
  let p1 = (a.x1, a.y1) and p2 = (a.x2, a.y2) in
  let p3 = (b.x1, b.y1) and p4 = (b.x2, b.y2) in
  let d1 = float_orient p1 p2 p3
  and d2 = float_orient p1 p2 p4
  and d3 = float_orient p3 p4 p1
  and d4 = float_orient p3 p4 p2 in
  if d1 = 0 && d2 = 0 && d3 = 0 && d4 = 0 then begin
    (* collinear: overlap longer than a point? *)
    let lo = Float.max a.x1 b.x1 and hi = Float.min a.x2 b.x2 in
    if a.x1 = a.x2 then Float.min a.y2 b.y2 > Float.max a.y1 b.y1 else hi > lo
  end
  else d1 * d2 < 0 && d3 * d4 < 0

let verdict_for segs =
  if all_integral segs then fun a b ->
    Predicates.crosses (Predicates.of_segment a) (Predicates.of_segment b)
  else float_crosses

type event = { ex : float; kind : int; seg : Segment.t }
(* kind: 0 = insert, 1 = vertical, 2 = remove — processed in this order
   at equal abscissas so verticals see everything active at their x *)

let find_crossing segs =
  let verdict = verdict_for segs in
  let events = ref [] in
  Array.iter
    (fun (s : Segment.t) ->
      if Segment.is_point s then () (* a point only ever touches *)
      else if Segment.is_vertical s then events := { ex = s.x1; kind = 1; seg = s } :: !events
      else begin
        events := { ex = s.x1; kind = 0; seg = s } :: !events;
        events := { ex = s.x2; kind = 2; seg = s } :: !events
      end)
    segs;
  let events =
    List.sort
      (fun a b -> compare (a.ex, a.kind, a.seg.Segment.id) (b.ex, b.kind, b.seg.Segment.id))
      !events
  in
  let status = ref Status.empty in
  let check a b = if verdict a b then raise (Found (a, b)) in
  let check_opt s = function Some (o, ()) -> check s o | None -> () in
  (* Order-corruption fallback: a failed keyed lookup means the status
     order broke (ties flipping at a shared right endpoint, or a
     crossing past the comparator). Test the departing segment against
     every active one, rebuild the status under the current order, and
     test every *adjacent pair* of the rebuilt order — rebuilding is an
     adjacency-creating event like insert/remove, so skipping the tests
     here would be the one hole in the "every pair that ever becomes
     adjacent is tested" completeness argument. *)
  let rescue s =
    Status.iter (fun o () -> if o.Segment.id <> s.Segment.id then check s o) !status;
    let keep = ref [] in
    Status.iter (fun o () -> if o.Segment.id <> s.Segment.id then keep := o :: !keep) !status;
    status := List.fold_left (fun acc o -> Status.add o () acc) Status.empty !keep;
    let prev = ref None in
    Status.iter
      (fun o () ->
        (match !prev with Some p -> check p o | None -> ());
        prev := Some o)
      !status
  in
  try
    List.iter
      (fun ev ->
        sweep_x := ev.ex;
        let s = ev.seg in
        match ev.kind with
        | 0 ->
            status := Status.add s () !status;
            let l, _, r = Status.split s !status in
            check_opt s (Status.max_binding_opt l);
            check_opt s (Status.min_binding_opt r)
        | 1 ->
            (* vertical: candidates are the actives whose ordinate at
               [ex] falls within the vertical's closed extent *)
            let lo = Segment.min_y s and hi = Segment.max_y s in
            Status.iter
              (fun o () ->
                let y = Segment.y_at o ev.ex in
                if lo <= y && y <= hi then check s o)
              !status
        | _ ->
            let l, present, r = Status.split s !status in
            if present = None then rescue s
            else begin
              (match (Status.max_binding_opt l, Status.min_binding_opt r) with
              | Some (a, ()), Some (b, ()) -> check a b
              | _ -> ());
              status := Status.remove s !status
            end)
      events;
    (* verticals sharing an abscissa were each checked against actives,
       but not against each other: do the per-abscissa pass *)
    let verts =
      Array.to_list segs
      |> List.filter (fun (s : Segment.t) -> Segment.is_vertical s && not (Segment.is_point s))
      |> List.sort (fun (a : Segment.t) b -> compare (a.x1, a.y1) (b.x1, b.y1))
    in
    let rec scan = function
      | (a : Segment.t) :: (b :: _ as rest) ->
          if a.x1 = b.x1 then check a b;
          scan rest
      | _ -> ()
    in
    scan verts;
    None
  with Found (a, b) -> Some (a, b)

let verify_nct segs = find_crossing segs = None
