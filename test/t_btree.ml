(* Model-based tests for the external B+-tree. *)

open Segdb_io

module B = Segdb_btree.Bplus_tree.Make (Int) (struct
  type t = string
end)

module Model = Map.Make (Int)

let qtest = QCheck_alcotest.to_alcotest

let mk ?(fanout = 8) () =
  let pool = Block_store.Pool.create ~capacity:64 in
  let io = Io_stats.create () in
  (B.create ~fanout ~pool ~stats:io (), io)

type op = Insert of int | Delete of int

let op_gen =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Insert k) (int_range 0 300)); (2, map (fun k -> Delete k) (int_range 0 300)) ])

let ops_arb =
  QCheck.make
    ~print:
      (QCheck.Print.list (function
        | Insert k -> Printf.sprintf "I%d" k
        | Delete k -> Printf.sprintf "D%d" k))
    QCheck.Gen.(list_size (0 -- 500) op_gen)

let value_of k = string_of_int (k * 7)

let apply t ops =
  List.fold_left
    (fun m op ->
      match op with
      | Insert k ->
          B.insert t k (value_of k);
          Model.add k (value_of k) m
      | Delete k ->
          let present = B.delete t k in
          if present <> Model.mem k m then Alcotest.fail "delete presence mismatch";
          Model.remove k m)
    Model.empty ops

(* Contents through [iter_range], membership through [iter_from]: the
   reads the interval tree's lists make. *)
let bindings t =
  let acc = ref [] in
  B.iter_range t ~lo:None ~hi:None (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc

let mem t k =
  let found = ref false in
  B.iter_from t k (fun k' _ ->
      found := k' = k;
      `Stop);
  !found

let prop_model =
  QCheck.Test.make ~name:"btree equals Map model" ~count:150 ops_arb (fun ops ->
      let t, _ = mk () in
      let m = apply t ops in
      B.size t = Model.cardinal m
      && bindings t = Model.bindings m
      && List.for_all (fun k -> mem t k = Model.mem k m)
           (List.map (function Insert k | Delete k -> k) ops))

let prop_invariants =
  QCheck.Test.make ~name:"btree invariants after random ops" ~count:150 ops_arb (fun ops ->
      let t, _ = mk () in
      let _ = apply t ops in
      B.check_invariants t)

let prop_range =
  QCheck.Test.make ~name:"iter_range equals model filter" ~count:120
    QCheck.(triple ops_arb (int_range (-10) 310) (int_range 0 100))
    (fun (ops, lo, width) ->
      let t, _ = mk () in
      let m = apply t ops in
      let hi = lo + width in
      let got = ref [] in
      B.iter_range t ~lo:(Some lo) ~hi:(Some hi) (fun k v -> got := (k, v) :: !got);
      let expected = Model.bindings m |> List.filter (fun (k, _) -> lo <= k && k <= hi) in
      List.rev !got = expected)

let test_iter_from_stop () =
  let t, _ = mk () in
  List.iter (fun k -> B.insert t k (value_of k)) [ 1; 3; 5; 7; 9 ];
  let seen = ref [] in
  B.iter_from t 4 (fun k _ ->
      seen := k :: !seen;
      if List.length !seen >= 2 then `Stop else `Continue);
  Alcotest.(check (list int)) "starts at successor, stops on demand" [ 5; 7 ] (List.rev !seen)

let test_io_scaling () =
  (* Finding a key in a tree built by inserts costs one root-to-leaf
     descent: with nodes at least half full, at most
     ceil(log_(fanout/2) n) + 1 levels, and one more read when the key
     opens the next leaf. *)
  let fanout = 32 and n = 20_000 in
  let pool = Block_store.Pool.create ~capacity:4 in
  let io = Io_stats.create () in
  let t = B.create ~fanout ~pool ~stats:io () in
  for i = 0 to n - 1 do
    B.insert t i (value_of i)
  done;
  Io_stats.reset io;
  let found = ref None in
  B.iter_from t (n / 2) (fun k _ ->
      found := Some k;
      `Stop);
  Alcotest.(check (option int)) "finds the key" (Some (n / 2)) !found;
  let cost = Io_stats.reads io in
  let bound =
    int_of_float (Float.ceil (log (float_of_int n) /. log (float_of_int (fanout / 2)))) + 2
  in
  Alcotest.(check bool)
    (Printf.sprintf "lookup cost %d is at most %d" cost bound)
    true (cost <= bound)

let test_empty_tree () =
  let t, _ = mk () in
  Alcotest.(check bool) "empty" true (B.is_empty t);
  Alcotest.(check bool) "absent" false (mem t 1);
  Alcotest.(check bool) "delete absent" false (B.delete t 1);
  Alcotest.(check int) "no elements" 0 (List.length (bindings t));
  Alcotest.(check bool) "invariants" true (B.check_invariants t)

let suite =
  ( "btree",
    [
      Alcotest.test_case "empty tree" `Quick test_empty_tree;
      Alcotest.test_case "iter_from stop" `Quick test_iter_from_stop;
      Alcotest.test_case "lookup io scaling" `Quick test_io_scaling;
      qtest prop_model;
      qtest prop_invariants;
      qtest prop_range;
    ] )
