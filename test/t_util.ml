(* Unit and property tests for Segdb_util: rng, stats, table, ring. *)

open Segdb_util

let qtest = QCheck_alcotest.to_alcotest

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int64 a = Rng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create 7 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 a) (Rng.int64 b)

let test_rng_split () =
  let a = Rng.create 9 in
  let b = Rng.split a in
  let xs = List.init 32 (fun _ -> Rng.int64 a) in
  let ys = List.init 32 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let prop_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      0 <= v && v < bound)

let prop_in_range =
  QCheck.Test.make ~name:"rng in_range inclusive" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, extent) ->
      let rng = Rng.create seed in
      let v = Rng.in_range rng lo (lo + extent) in
      lo <= v && v <= lo + extent)

let prop_float_bounds =
  QCheck.Test.make ~name:"rng float within bounds" ~count:500 QCheck.small_int (fun seed ->
      let rng = Rng.create seed in
      let v = Rng.float rng 10.0 in
      0.0 <= v && v < 10.0)

let test_shuffle_permutation () =
  let rng = Rng.create 3 in
  let a = Array.init 100 (fun i -> i) in
  let b = Array.copy a in
  Rng.shuffle rng b;
  Alcotest.(check bool) "shuffled" true (a <> b);
  let sorted = Array.copy b in
  Array.sort compare sorted;
  Alcotest.(check bool) "is a permutation" true (sorted = a)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  Alcotest.(check (float 1e-6)) "stddev" 1.290994 (Stats.stddev s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean of empty" 0.0 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "stddev of empty" 0.0 (Stats.stddev s)

let prop_stats_mean =
  QCheck.Test.make ~name:"stats mean matches fold" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let expected = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      Float.abs (Stats.mean s -. expected) < 1e-6 *. (1.0 +. Float.abs expected))

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "n"; "io" ] in
  Table.add_row t [ Table.cell_int 1024; Table.cell_float 3.5 ];
  Table.add_row t [ Table.cell_int 2048 ];
  let out = Table.render t in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  (* row order is insertion order *)
  let idx s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "1024 before 2048" true (idx out "1024" < idx out "2048" && idx out "1024" >= 0)

let test_table_row_too_wide () =
  let t = Table.create ~title:"x" ~columns:[ "a" ] in
  Alcotest.check_raises "wide row rejected" (Invalid_argument "Table.add_row: row wider than header")
    (fun () -> Table.add_row t [ "1"; "2" ])

let suite =
  ( "util",
    [
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
      Alcotest.test_case "rng copy" `Quick test_rng_copy_independent;
      Alcotest.test_case "rng split" `Quick test_rng_split;
      Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
      Alcotest.test_case "stats basic" `Quick test_stats_basic;
      Alcotest.test_case "stats empty" `Quick test_stats_empty;
      Alcotest.test_case "table render" `Quick test_table_render;
      Alcotest.test_case "table row too wide" `Quick test_table_row_too_wide;
      qtest prop_int_bounds;
      qtest prop_in_range;
      qtest prop_float_bounds;
      qtest prop_stats_mean;
    ] )

(* ---------------- Ring ---------------- *)

let test_ring () =
  let ints = Alcotest.(list int) in
  let r = Ring.create 3 in
  Alcotest.(check ints) "empty" [] (Ring.to_list r);
  List.iter (Ring.push r) [ 1; 2 ];
  Alcotest.(check ints) "not yet full" [ 1; 2 ] (Ring.to_list r);
  List.iter (Ring.push r) [ 3; 4; 5 ];
  Alcotest.(check ints) "wraparound keeps the newest, oldest first" [ 3; 4; 5 ]
    (Ring.to_list r);
  Ring.resize r 2;
  Alcotest.(check ints) "shrink keeps the newest" [ 4; 5 ] (Ring.to_list r);
  Ring.push r 6;
  Alcotest.(check ints) "pushes after a shrink" [ 5; 6 ] (Ring.to_list r);
  Ring.resize r 4;
  Ring.push r 7;
  Alcotest.(check ints) "grow keeps everything" [ 5; 6; 7 ] (Ring.to_list r);
  Ring.clear r;
  Alcotest.(check ints) "clear empties" [] (Ring.to_list r);
  Ring.push r 8;
  Alcotest.(check ints) "pushes after a clear" [ 8 ] (Ring.to_list r);
  Ring.resize r 0;
  Ring.push r 9;
  Alcotest.(check ints) "capacity 0 keeps nothing" [] (Ring.to_list r);
  Alcotest.(check ints) "created at 0" []
    (let z = Ring.create 0 in
     Ring.push z 1;
     Ring.to_list z)

(* ---------------- Ascii_plot ---------------- *)

let test_plot_renders () =
  let out =
    Ascii_plot.render ~width:40 ~height:8 ~log_x:true ~title:"demo" ~x_label:"n"
      ~y_label:"io"
      [
        { Ascii_plot.label = "a"; points = [ (1024.0, 1.0); (2048.0, 2.0); (4096.0, 3.0) ] };
        { Ascii_plot.label = "b"; points = [ (1024.0, 10.0); (4096.0, 40.0) ] };
      ]
  in
  Alcotest.(check bool) "has title" true (String.length out > 0);
  Alcotest.(check bool) "has legend a" true
    (String.split_on_char '\n' out |> List.exists (fun l -> l = "           * = a"));
  let contains hay needle =
    let n = String.length hay and m = String.length needle in
    let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions log scale" true (contains out "log scale")

let test_plot_empty () =
  let out = Ascii_plot.render ~title:"empty" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "no data marker" true
    (String.length out > 0)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "ring wraparound, resize, clear" `Quick test_ring;
        Alcotest.test_case "ascii plot renders" `Quick test_plot_renders;
        Alcotest.test_case "ascii plot empty" `Quick test_plot_empty;
      ] )
