(* Packed list and slab segment tree (G + fractional cascading) tests. *)

open Segdb_io
open Segdb_geom
module G = Segdb_segtree.Slab_segment_tree

module Pl = Segdb_segtree.Packed_list.Make (struct
  type t = int
end)

let qtest = QCheck_alcotest.to_alcotest

let mk_pool ?(cap = 512) () = (Block_store.Pool.create ~capacity:cap, Io_stats.create ())

(* ---------------- Packed_list ---------------- *)

let sorted_ints_arb =
  QCheck.make ~print:QCheck.Print.(list int)
    QCheck.Gen.(map (List.sort_uniq compare) (list_size (0 -- 300) (int_range 0 1000)))

let prop_plist_search =
  QCheck.Test.make ~name:"packed list search equals naive" ~count:200
    (QCheck.pair sorted_ints_arb (QCheck.int_range (-10) 1010))
    (fun (xs, needle) ->
      let pool, io = mk_pool () in
      let arr = Array.of_list xs in
      let t = Pl.build ~block_capacity:4 ~pool ~stats:io arr in
      let got = Pl.search t ~cmp:(fun e -> compare e needle) in
      let expected =
        match Array.find_index (fun e -> e >= needle) arr with
        | Some i -> i
        | None -> Array.length arr
      in
      got = expected)

let prop_plist_roundtrip =
  QCheck.Test.make ~name:"packed list get/to_array roundtrip" ~count:100 sorted_ints_arb
    (fun xs ->
      let pool, io = mk_pool () in
      let arr = Array.of_list xs in
      let t = Pl.build ~block_capacity:3 ~pool ~stats:io arr in
      Pl.to_array t = arr
      && List.for_all (fun i -> Pl.get t i = arr.(i)) (List.init (Array.length arr) Fun.id))

let prop_plist_walks =
  QCheck.Test.make ~name:"packed list bidirectional walks" ~count:100
    (QCheck.pair sorted_ints_arb QCheck.small_nat)
    (fun (xs, start) ->
      let pool, io = mk_pool () in
      let arr = Array.of_list xs in
      let n = Array.length arr in
      QCheck.assume (n > 0);
      let start = start mod n in
      let t = Pl.build ~block_capacity:3 ~pool ~stats:io arr in
      let fwd = ref [] in
      Pl.iter_forward t start (fun i e ->
          fwd := (i, e) :: !fwd;
          `Continue);
      let bwd = ref [] in
      Pl.iter_backward t start (fun i e ->
          bwd := (i, e) :: !bwd;
          `Continue);
      List.rev !fwd = List.init (n - start) (fun k -> (start + k, arr.(start + k)))
      && List.rev !bwd = List.init (start + 1) (fun k -> (start - k, arr.(start - k))))

let test_plist_empty () =
  let pool, io = mk_pool () in
  let t = Pl.build ~pool ~stats:io [||] in
  Alcotest.(check int) "length" 0 (Pl.length t);
  Alcotest.(check int) "search" 0 (Pl.search t ~cmp:(fun _ -> 0));
  Pl.iter_forward t 0 (fun _ _ -> Alcotest.fail "no entries");
  Pl.iter_backward t 0 (fun _ _ -> Alcotest.fail "no entries")

let test_plist_search_io () =
  let pool = Block_store.Pool.create ~capacity:4 in
  let io = Io_stats.create () in
  let arr = Array.init 100_000 (fun i -> i) in
  let t = Pl.build ~block_capacity:64 ~pool ~stats:io arr in
  Io_stats.reset io;
  ignore (Pl.search t ~cmp:(fun e -> compare e 77_777));
  Alcotest.(check bool)
    (Printf.sprintf "search cost %d is logarithmic" (Io_stats.reads io))
    true
    (Io_stats.reads io <= 4)

(* ---------------- Slab segment tree ---------------- *)

(* Non-crossing long fragments on x >= 0: lines y = base + slope * x
   with bases and slopes co-sorted never cross at x >= 0. *)
let fragments_of rng ~nb ~n =
  let boundaries = Array.init nb (fun i -> float_of_int (i * 10)) in
  let bases = Array.init n (fun _ -> Segdb_util.Rng.float rng 100.0) in
  let slopes = Array.init n (fun _ -> Segdb_util.Rng.float rng 2.0 -. 1.0) in
  Array.sort compare bases;
  Array.sort compare slopes;
  let frags =
    Array.init n (fun i ->
        let a = Segdb_util.Rng.int rng (nb - 1) in
        let b = Segdb_util.Rng.in_range rng (a + 1) (nb - 1) in
        let xa = boundaries.(a) and xb = boundaries.(b) in
        let y x = bases.(i) +. (slopes.(i) *. x) in
        Segment.make ~id:i (xa, y xa) (xb, y xb))
  in
  (boundaries, frags)

let g_scenario =
  QCheck.make
    ~print:(fun (seed, nb, n, x, y1, w) ->
      Printf.sprintf "seed=%d nb=%d n=%d x=%g y=[%g,%g]" seed nb n x y1 (y1 +. w))
    QCheck.Gen.(
      let* seed = 0 -- 100000 in
      let* nb = 2 -- 12 in
      let* n = 0 -- 80 in
      (* a third of the queries land exactly on a boundary (multiples of
         10), where the two gaps' paths meet *)
      let* x =
        frequency
          [ (2, float_range (-5.0) 125.0); (1, map (fun i -> float_of_int (10 * i)) (0 -- (nb - 1))) ]
      in
      let* y1 = float_range (-20.0) 220.0 in
      let* w = float_range 0.0 100.0 in
      return (seed, nb, n, x, y1, w))

let oracle_g frags ~x ~ylo ~yhi =
  Array.to_list frags
  |> List.filter (fun (s : Segment.t) ->
         Segment.spans_x s x
         &&
         let y = Segment.y_at s x in
         ylo <= y && y <= yhi)
  |> List.map (fun (s : Segment.t) -> s.Segment.id)
  |> List.sort_uniq compare

let run_g ?(cascade = true) (seed, nb, n, x, y1, w) =
  let pool, io = mk_pool () in
  let rng = Segdb_util.Rng.create seed in
  let boundaries, frags = fragments_of rng ~nb ~n in
  let g = G.build ~cascade ~list_block:4 ~pool ~stats:io ~boundaries frags in
  let got = G.query_list g ~x ~ylo:y1 ~yhi:(y1 +. w) in
  let got_ids = List.map (fun (s : Segment.t) -> s.Segment.id) got |> List.sort compare in
  (g, frags, got_ids, io)

let prop_g_oracle =
  QCheck.Test.make ~name:"segment tree query equals naive (cascade)" ~count:400 g_scenario
    (fun ((_, _, _, x, y1, w) as sc) ->
      let _, frags, got, _ = run_g sc in
      let expected = oracle_g frags ~x ~ylo:y1 ~yhi:(y1 +. w) in
      got = expected
      && List.length got = List.length (List.sort_uniq compare got) (* unique *))

let prop_g_oracle_nocascade =
  QCheck.Test.make ~name:"segment tree query equals naive (no cascade)" ~count:300 g_scenario
    (fun ((_, _, _, x, y1, w) as sc) ->
      let _, frags, got, _ = run_g ~cascade:false sc in
      got = oracle_g frags ~x ~ylo:y1 ~yhi:(y1 +. w))

let prop_g_invariants =
  QCheck.Test.make ~name:"segment tree invariants" ~count:200 g_scenario (fun sc ->
      let g, frags, _, _ = run_g sc in
      G.check_invariants g
      && G.size g = Array.length frags
      (* each fragment allocated to at most 2 nodes per level *)
      && G.stored_entries g <= Array.length frags * 2 * (2 + int_of_float (ceil (log (float_of_int (max 2 (G.size g))) /. log 2.0))))

let test_g_cascade_guides () =
  let pool, io = mk_pool ~cap:2048 () in
  let rng = Segdb_util.Rng.create 3 in
  let boundaries, frags = fragments_of rng ~nb:12 ~n:4000 in
  let g = G.build ~cascade:true ~list_block:16 ~pool ~stats:io ~boundaries frags in
  for i = 0 to 19 do
    let x = 5.0 +. (float_of_int i *. 5.5) in
    ignore (G.query_list g ~x ~ylo:0.0 ~yhi:200.0)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "guided %d > fallback %d" (G.guided_levels g) (G.fallback_searches g))
    true
    (G.guided_levels g > G.fallback_searches g)

let test_g_cascade_saves_io () =
  (* With dense lists on every level, cascading must beat per-level
     searches in I/Os. *)
  let run cascade =
    let pool = Block_store.Pool.create ~capacity:8 in
    let io = Io_stats.create () in
    let rng = Segdb_util.Rng.create 9 in
    let boundaries, frags = fragments_of rng ~nb:16 ~n:20_000 in
    let g = G.build ~cascade ~list_block:32 ~pool ~stats:io ~boundaries frags in
    Io_stats.reset io;
    for i = 0 to 49 do
      let x = 3.0 +. (float_of_int i *. 2.9) in
      let y = float_of_int (i * 4) in
      ignore (G.query_list g ~x ~ylo:y ~yhi:(y +. 4.0))
    done;
    Io_stats.reads io
  in
  let with_fc = run true and without_fc = run false in
  Alcotest.(check bool)
    (Printf.sprintf "cascade %d < no-cascade %d reads" with_fc without_fc)
    true
    (with_fc < without_fc)

let test_g_empty_and_errors () =
  let pool, io = mk_pool () in
  let g = G.build ~pool ~stats:io ~boundaries:[| 0.0; 10.0 |] [||] in
  Alcotest.(check int) "empty query" 0 (List.length (G.query_list g ~x:5.0 ~ylo:0.0 ~yhi:1.0));
  Alcotest.(check bool) "bad boundaries rejected" true
    (match G.build ~pool ~stats:io ~boundaries:[| 1.0 |] [||] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "off-boundary fragment rejected" true
    (match
       G.build ~pool ~stats:io ~boundaries:[| 0.0; 10.0 |]
         [| Segment.make ~id:0 (1.0, 0.0) (10.0, 0.0) |]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_g_boundary_query () =
  (* query exactly on an interior boundary touches both sides *)
  let pool, io = mk_pool () in
  let boundaries = [| 0.0; 10.0; 20.0 |] in
  let frags =
    [|
      Segment.make ~id:0 (0.0, 1.0) (10.0, 1.0); (* left of s_1 *)
      Segment.make ~id:1 (10.0, 2.0) (20.0, 2.0); (* right of s_1 *)
      Segment.make ~id:2 (0.0, 3.0) (20.0, 3.0); (* spans both *)
    |]
  in
  let g = G.build ~pool ~stats:io ~boundaries frags in
  let got =
    G.query_list g ~x:10.0 ~ylo:0.0 ~yhi:5.0
    |> List.map (fun (s : Segment.t) -> s.Segment.id)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "all three touched once" [ 0; 1; 2 ] got

let suite =
  ( "segtree",
    [
      Alcotest.test_case "plist empty" `Quick test_plist_empty;
      Alcotest.test_case "plist search io" `Quick test_plist_search_io;
      Alcotest.test_case "g cascade guides" `Quick test_g_cascade_guides;
      Alcotest.test_case "g cascade saves io" `Quick test_g_cascade_saves_io;
      Alcotest.test_case "g empty and errors" `Quick test_g_empty_and_errors;
      Alcotest.test_case "g boundary query" `Quick test_g_boundary_query;
      qtest prop_plist_search;
      qtest prop_plist_roundtrip;
      qtest prop_plist_walks;
      qtest prop_g_oracle;
      qtest prop_g_oracle_nocascade;
      qtest prop_g_invariants;
    ] )

(* -------- dynamic overlay: insert + delete -------- *)

let prop_g_insert_oracle =
  QCheck.Test.make ~name:"segment tree insert preserves queries" ~count:200 g_scenario
    (fun (seed, nb, n, x, y1, w) ->
      QCheck.assume (n > 1 && nb >= 2);
      let pool, io = mk_pool () in
      let rng = Segdb_util.Rng.create seed in
      let boundaries, frags = fragments_of rng ~nb ~n in
      let k = n / 2 in
      let g = G.build ~list_block:4 ~pool ~stats:io ~boundaries (Array.sub frags 0 k) in
      for i = k to n - 1 do
        G.insert g frags.(i)
      done;
      let got =
        G.query_list g ~x ~ylo:y1 ~yhi:(y1 +. w)
        |> List.map (fun (s : Segment.t) -> s.Segment.id)
        |> List.sort compare
      in
      G.size g = n
      && G.check_invariants g
      && got = oracle_g frags ~x ~ylo:y1 ~yhi:(y1 +. w))

let prop_g_delete_oracle =
  QCheck.Test.make ~name:"segment tree delete tombstones correctly" ~count:150 g_scenario
    (fun (seed, nb, n, x, y1, w) ->
      QCheck.assume (n > 0 && nb >= 2);
      let pool, io = mk_pool () in
      let rng = Segdb_util.Rng.create seed in
      let boundaries, frags = fragments_of rng ~nb ~n in
      let g = G.build ~list_block:4 ~pool ~stats:io ~boundaries frags in
      let doomed, kept =
        Array.to_list frags |> List.partition (fun (s : Segment.t) -> s.Segment.id mod 3 = 0)
      in
      let ok_del = List.for_all (G.delete g) doomed in
      (* deleted then re-inserted under the same id: must be answered again *)
      let back = List.filter (fun (s : Segment.t) -> s.Segment.id mod 2 = 0) doomed in
      List.iter (G.insert g) back;
      let live = kept @ back in
      let got =
        G.query_list g ~x ~ylo:y1 ~yhi:(y1 +. w)
        |> List.map (fun (s : Segment.t) -> s.Segment.id)
        |> List.sort compare
      in
      ok_del
      && G.size g = List.length live
      && got = (oracle_g (Array.of_list live) ~x ~ylo:y1 ~yhi:(y1 +. w)))

let suite =
  let name, cases = suite in
  (name, cases @ [ qtest prop_g_insert_oracle; qtest prop_g_delete_oracle ])
