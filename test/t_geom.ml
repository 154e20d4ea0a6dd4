(* Geometry tests: exact predicates, segments, vertical queries, the
   line-based order lemma, and rotation transforms. *)

open Segdb_geom

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Predicates ---------------- *)

let ipoint_gen = QCheck.Gen.(pair (int_range (-50) 50) (int_range (-50) 50))
let iseg_gen = QCheck.Gen.(pair ipoint_gen ipoint_gen)

let iseg_print ((a, b), (c, d)) = Printf.sprintf "((%d,%d),(%d,%d))" a b c d

let test_orient_basic () =
  Alcotest.(check int) "left turn" 1 (Predicates.orient (0, 0) (1, 0) (1, 1));
  Alcotest.(check int) "right turn" (-1) (Predicates.orient (0, 0) (1, 0) (1, -1));
  Alcotest.(check int) "collinear" 0 (Predicates.orient (0, 0) (1, 1) (2, 2))

let test_crossing_cases () =
  let x = Predicates.crosses in
  (* proper crossing *)
  Alcotest.(check bool) "X crossing" true (x ((0, 0), (2, 2)) ((0, 2), (2, 0)));
  (* shared endpoint: touching, allowed *)
  Alcotest.(check bool) "shared endpoint" false (x ((0, 0), (2, 2)) ((2, 2), (4, 0)));
  (* T-touch: endpoint on interior, allowed *)
  Alcotest.(check bool) "T touch" false (x ((0, 0), (4, 0)) ((2, 0), (2, 3)));
  (* collinear overlap: crossing *)
  Alcotest.(check bool) "collinear overlap" true (x ((0, 0), (4, 0)) ((2, 0), (6, 0)));
  (* collinear single shared point: touching *)
  Alcotest.(check bool) "collinear point touch" false (x ((0, 0), (2, 0)) ((2, 0), (4, 0)));
  (* disjoint *)
  Alcotest.(check bool) "disjoint" false (x ((0, 0), (1, 0)) ((3, 3), (4, 4)))

let prop_orient_antisymmetric =
  QCheck.Test.make ~name:"orient antisymmetry" ~count:500
    (QCheck.make QCheck.Gen.(triple ipoint_gen ipoint_gen ipoint_gen))
    (fun (a, b, c) -> Predicates.orient a b c = -Predicates.orient b a c)

let prop_crosses_symmetric =
  QCheck.Test.make ~name:"crosses symmetric" ~count:500
    (QCheck.make ~print:(QCheck.Print.pair iseg_print iseg_print) QCheck.Gen.(pair iseg_gen iseg_gen))
    (fun (s1, s2) -> Predicates.crosses s1 s2 = Predicates.crosses s2 s1)

let prop_crosses_implies_intersect =
  QCheck.Test.make ~name:"crosses implies intersect" ~count:500
    (QCheck.make ~print:(QCheck.Print.pair iseg_print iseg_print) QCheck.Gen.(pair iseg_gen iseg_gen))
    (fun (s1, s2) -> (not (Predicates.crosses s1 s2)) || Predicates.intersect s1 s2)

(* ---------------- Segment / Vquery ---------------- *)

let test_segment_normalization () =
  let s = Segment.make ~id:1 (3.0, 1.0) (1.0, 2.0) in
  Alcotest.(check (float 0.0)) "x1 smaller" 1.0 s.Segment.x1;
  Alcotest.(check (float 0.0)) "y1 follows" 2.0 s.Segment.y1

let test_y_at () =
  let s = Segment.make (0.0, 0.0) (4.0, 8.0) in
  Alcotest.(check (float 1e-9)) "midpoint" 4.0 (Segment.y_at s 2.0);
  Alcotest.(check (float 1e-9)) "left end" 0.0 (Segment.y_at s 0.0)

let test_clip_x () =
  let s = Segment.make ~id:3 (0.0, 0.0) (10.0, 10.0) in
  (match Segment.clip_x s 2.0 5.0 with
  | Some c ->
      Alcotest.(check (float 1e-9)) "clip lo" 2.0 c.Segment.x1;
      Alcotest.(check (float 1e-9)) "clip lo y" 2.0 c.Segment.y1;
      Alcotest.(check (float 1e-9)) "clip hi" 5.0 c.Segment.x2;
      Alcotest.(check int) "id preserved" 3 c.Segment.id
  | None -> Alcotest.fail "clip should not be empty");
  Alcotest.(check bool) "disjoint clip" true (Segment.clip_x s 11.0 12.0 = None);
  let v = Segment.make (5.0, 0.0) (5.0, 3.0) in
  Alcotest.(check bool) "vertical inside kept" true (Segment.clip_x v 4.0 6.0 = Some v);
  Alcotest.(check bool) "vertical outside dropped" true (Segment.clip_x v 6.0 7.0 = None)

let test_vquery_matches () =
  let s = Segment.make (0.0, 0.0) (10.0, 10.0) in
  Alcotest.(check bool) "hit" true (Vquery.matches (Vquery.segment ~x:5.0 ~ylo:4.0 ~yhi:6.0) s);
  Alcotest.(check bool) "miss above" false
    (Vquery.matches (Vquery.segment ~x:5.0 ~ylo:6.0 ~yhi:9.0) s);
  Alcotest.(check bool) "ray" true (Vquery.matches (Vquery.ray_up ~x:5.0 ~ylo:1.0) s);
  Alcotest.(check bool) "line" true (Vquery.matches (Vquery.line ~x:5.0) s);
  Alcotest.(check bool) "outside x" false (Vquery.matches (Vquery.line ~x:11.0) s);
  (* touching endpoint counts *)
  Alcotest.(check bool) "touch endpoint" true
    (Vquery.matches (Vquery.segment ~x:0.0 ~ylo:0.0 ~yhi:0.0) s);
  (* vertical segment overlap *)
  let v = Segment.make (2.0, 1.0) (2.0, 5.0) in
  Alcotest.(check bool) "vertical overlap" true
    (Vquery.matches (Vquery.segment ~x:2.0 ~ylo:5.0 ~yhi:8.0) v);
  Alcotest.(check bool) "vertical disjoint" false
    (Vquery.matches (Vquery.segment ~x:2.0 ~ylo:5.5 ~yhi:8.0) v)

let test_vquery_invalid () =
  Alcotest.(check bool) "inverted range rejected" true
    (match Vquery.segment ~x:0.0 ~ylo:1.0 ~yhi:0.0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- Lseg ---------------- *)

(* Certified-NCT line-based generator: base positions and slopes sorted
   the same way can never cross (v_j(u) - v_i(u) = (b_j - b_i) + (s_j -
   s_i) u > 0). Depths are arbitrary. *)
let nct_lsegs_gen =
  QCheck.Gen.(
    let* n = 1 -- 40 in
    let* bases = array_size (return n) (float_range (-100.0) 100.0) in
    let* slopes = array_size (return n) (float_range (-3.0) 3.0) in
    let* depths = array_size (return n) (float_range 0.1 50.0) in
    Array.sort compare bases;
    Array.sort compare slopes;
    return
      (Array.init n (fun i ->
           Lseg.make ~id:i ~base_v:bases.(i) ~far_u:depths.(i)
             ~far_v:(bases.(i) +. (slopes.(i) *. depths.(i)))
             ())))

let lseg_print (s : Lseg.t) =
  Printf.sprintf "L%d(b=%g,u=%g,v=%g)" s.Lseg.id s.Lseg.base_v s.Lseg.far_u s.Lseg.far_v

let nct_lsegs_arb = QCheck.make ~print:(QCheck.Print.array lseg_print) nct_lsegs_gen

let prop_order_lemma =
  QCheck.Test.make ~name:"NCT order lemma: key order = crossing order" ~count:300
    (QCheck.pair nct_lsegs_arb (QCheck.float_range 0.0 50.0))
    (fun (segs, uq) ->
      let crossing = Array.to_list segs |> List.filter (fun s -> Lseg.reaches s uq) in
      let sorted = List.sort Lseg.compare_key crossing in
      let rec monotone = function
        | a :: (b :: _ as rest) -> Lseg.cross_v a uq <= Lseg.cross_v b uq && monotone rest
        | _ -> true
      in
      monotone sorted)

let prop_vline_parts_consistent =
  (* Splitting a plane segment at a vertical line and querying both
     parts at the line reproduces the original crossing point. *)
  QCheck.Test.make ~name:"left/right parts agree at the base line" ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad (float_range (-50.0) 0.0) (float_range (-40.0) 40.0) (float_range 0.1 50.0)
           (float_range (-40.0) 40.0)))
    (fun (x1, y1, dx, y2) ->
      let s = Segment.make ~id:9 (x1, y1) (x1 +. dx +. 0.5, y2) in
      let base_x = x1 +. (0.25 *. dx) in
      let l = Lseg.left_of_vline ~base_x s and r = Lseg.right_of_vline ~base_x s in
      Float.abs (l.Lseg.base_v -. r.Lseg.base_v) < 1e-9
      && Float.abs (Lseg.cross_v l 0.0 -. Segment.y_at s base_x) < 1e-9)

let test_lseg_matches_basic () =
  (* segment from base 0 going straight up 10 deep *)
  let s = Lseg.make ~id:0 ~base_v:0.0 ~far_u:10.0 ~far_v:0.0 () in
  Alcotest.(check bool) "hit at depth 5" true
    (Lseg.matches (Lseg.query ~uq:5.0 ~vlo:(-1.0) ~vhi:1.0) s);
  Alcotest.(check bool) "miss beyond depth" false
    (Lseg.matches (Lseg.query ~uq:11.0 ~vlo:(-1.0) ~vhi:1.0) s);
  Alcotest.(check bool) "miss sideways" false
    (Lseg.matches (Lseg.query ~uq:5.0 ~vlo:1.0 ~vhi:2.0) s);
  Alcotest.(check bool) "touch at exact depth" true
    (Lseg.matches (Lseg.query ~uq:10.0 ~vlo:0.0 ~vhi:0.0) s)

let test_lseg_key_order_fan () =
  (* same base point: slope breaks the tie *)
  let a = Lseg.make ~id:1 ~base_v:0.0 ~far_u:10.0 ~far_v:(-5.0) () in
  let b = Lseg.make ~id:0 ~base_v:0.0 ~far_u:10.0 ~far_v:5.0 () in
  Alcotest.(check bool) "left-leaning first" true (Lseg.compare_key a b < 0)

(* ---------------- Transform ---------------- *)

let prop_rotation_to_vertical =
  QCheck.Test.make ~name:"to_vertical maps slope-m lines to vertical" ~count:300
    (QCheck.make QCheck.Gen.(triple (float_range (-5.0) 5.0) (float_range (-20.0) 20.0) (float_range (-20.0) 20.0)))
    (fun (m, x0, y0) ->
      let t = Transform.to_vertical ~slope:m in
      let p1 = (x0, y0) and p2 = (x0 +. 3.0, y0 +. (3.0 *. m)) in
      let x1, _ = Transform.point t p1 and x2, _ = Transform.point t p2 in
      Float.abs (x1 -. x2) < 1e-9 *. (1.0 +. Float.abs x1))

let prop_rotation_preserves_distance =
  QCheck.Test.make ~name:"rotation is rigid" ~count:300
    (QCheck.make QCheck.Gen.(triple (float_range (-3.0) 3.0) (float_range (-20.0) 20.0) (float_range (-20.0) 20.0)))
    (fun (angle, x, y) ->
      let t = Transform.rotation ~angle in
      let x', y' = Transform.point t (x, y) in
      Float.abs (sqrt ((x *. x) +. (y *. y)) -. sqrt ((x' *. x') +. (y' *. y'))) < 1e-9)

let prop_sloped_query_matches =
  (* Intersections are invariant under the rotation: a sloped query
     against original segments equals the vertical query against rotated
     segments. Uses exact-ish tolerance by avoiding near-degenerate
     setups: query slope well away from segment slopes. *)
  QCheck.Test.make ~name:"sloped query reduces to vertical" ~count:200
    (QCheck.make QCheck.Gen.(pair (float_range (-2.0) 2.0) (list_size (1 -- 20) (quad (float_range (-10.) 10.) (float_range (-10.) 10.) (float_range 3.0 10.0) (float_range (-1.0) 1.0)))))
    (fun (m, raw) ->
      let t = Transform.to_vertical ~slope:m in
      let segs =
        List.mapi
          (fun i (x, y, len, dir) ->
            (* keep segment direction far from the query slope *)
            let dx = 1.0 and dy = m +. 2.0 +. dir in
            let nx = len /. sqrt ((dx *. dx) +. (dy *. dy)) in
            Segment.make ~id:i (x, y) (x +. (dx *. nx), y +. (dy *. nx)))
          raw
      in
      let p1 = (0.0, 0.0) and p2 = (4.0, 4.0 *. m) in
      let q = Transform.vquery_of_segment t p1 p2 in
      List.for_all
        (fun s ->
          let rotated = Transform.segment t s in
          (* Intersection parameters of the supporting lines: s(ts) =
             a + ts*(b-a), q(tq) = p1 + tq*(p2-p1). *)
          let ax, ay = (s.Segment.x1, s.Segment.y1) in
          let bx, by = (s.Segment.x2, s.Segment.y2) in
          let qx1, qy1 = p1 and qx2, qy2 = p2 in
          let dxs = bx -. ax and dys = by -. ay in
          let dxq = qx2 -. qx1 and dyq = qy2 -. qy1 in
          let det = (dxs *. dyq) -. (dys *. dxq) in
          if Float.abs det < 1e-6 then true (* near-parallel: skip *)
          else begin
            let ts = (((qx1 -. ax) *. dyq) -. ((qy1 -. ay) *. dxq)) /. det in
            let tq = (((qx1 -. ax) *. dys) -. ((qy1 -. ay) *. dxs)) /. det in
            let near_boundary v = Float.abs v < 1e-6 || Float.abs (v -. 1.0) < 1e-6 in
            if near_boundary ts || near_boundary tq then true (* touching: skip *)
            else begin
              let direct = 0.0 < ts && ts < 1.0 && 0.0 < tq && tq < 1.0 in
              direct = Vquery.matches q rotated
            end
          end)
        segs)

let suite =
  ( "geom",
    [
      Alcotest.test_case "orient basic" `Quick test_orient_basic;
      Alcotest.test_case "crossing cases" `Quick test_crossing_cases;
      Alcotest.test_case "segment normalization" `Quick test_segment_normalization;
      Alcotest.test_case "y_at" `Quick test_y_at;
      Alcotest.test_case "clip_x" `Quick test_clip_x;
      Alcotest.test_case "vquery matches" `Quick test_vquery_matches;
      Alcotest.test_case "vquery invalid" `Quick test_vquery_invalid;
      Alcotest.test_case "lseg matches basic" `Quick test_lseg_matches_basic;
      Alcotest.test_case "lseg fan order" `Quick test_lseg_key_order_fan;
      qtest prop_orient_antisymmetric;
      qtest prop_crosses_symmetric;
      qtest prop_crosses_implies_intersect;
      qtest prop_order_lemma;
      qtest prop_vline_parts_consistent;
      qtest prop_rotation_to_vertical;
      qtest prop_rotation_preserves_distance;
      qtest prop_sloped_query_matches;
    ] )
