(* Fixed-slope generalized queries via rotation.

   The paper indexes *vertical* query segments and notes that any other
   fixed angular coefficient reduces to it by rotating the coordinate
   axes (its footnote 1). [Segdb.Sloped] makes that reduction: the
   query family here has slope 1/2, so the database is rotated once at
   build time and each sloped query is answered as a vertical one, in
   original coordinates.

   Run with: dune exec examples/sloped_queries.exe *)

open Segdb_geom
module W = Segdb_workload.Workload
module Db = Segdb_core.Segdb
module Rng = Segdb_util.Rng

let ids segs = List.sort compare (List.map (fun (s : Segment.t) -> s.Segment.id) segs)

let () =
  let slope = 0.5 in
  let span = 1000.0 in
  let segments = W.uniform (Rng.create 3) ~n:20_000 ~span in
  let db = Db.Sloped.create ~backend:`Solution2 ~slope segments in
  Printf.printf "indexed %d segments rotated so slope-%.2f queries become vertical\n"
    (Db.size (Db.Sloped.db db)) slope;

  (* sloped query segments: from (x0, y0) along direction (1, slope) *)
  let sloped_queries =
    [ ((100.0, 200.0), 400.0); ((500.0, 100.0), 600.0); ((50.0, 800.0), 150.0) ]
  in
  List.iter
    (fun ((x0, y0), len) ->
      let p1 = (x0, y0) in
      let p2 = (x0 +. len, y0 +. (slope *. len)) in
      let hits = Db.Sloped.query db ~p1 ~p2 in
      (* sanity: a direct scan in original coordinates finds the same ids *)
      let oracle =
        Array.to_list segments
        |> List.filter (fun (s : Segment.t) ->
               let orient (ax, ay) (bx, by) (cx, cy) =
                 let d = ((bx -. ax) *. (cy -. ay)) -. ((by -. ay) *. (cx -. ax)) in
                 if d > 1e-9 then 1 else if d < -1e-9 then -1 else 0
               in
               let a = (s.Segment.x1, s.Segment.y1) and b = (s.Segment.x2, s.Segment.y2) in
               orient a b p1 * orient a b p2 <= 0 && orient p1 p2 a * orient p1 p2 b <= 0)
      in
      Printf.printf
        "query from (%.0f, %.0f), length %.0f along slope %.2f: %d crossings (scan agrees: %b)\n"
        x0 y0 len slope (List.length hits)
        (ids hits = ids oracle))
    sloped_queries
