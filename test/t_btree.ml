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

let prop_model =
  QCheck.Test.make ~name:"btree equals Map model" ~count:150 ops_arb (fun ops ->
      let t, _ = mk () in
      let m = apply t ops in
      B.size t = Model.cardinal m
      && Model.for_all (fun k v -> B.find t k = Some v) m
      && List.for_all (fun k -> Model.mem k m || B.find t k = None)
           (List.map (function Insert k | Delete k -> k) ops)
      && List.rev (B.fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))
         = Model.bindings m)

let prop_invariants =
  QCheck.Test.make ~name:"btree invariants after random ops" ~count:150 ops_arb (fun ops ->
      let t, _ = mk () in
      let _ = apply t ops in
      B.check_invariants t)

let prop_bulk_load =
  QCheck.Test.make ~name:"bulk load equals inserts" ~count:80
    QCheck.(pair (int_range 0 500) (int_range 4 32))
    (fun (n, fanout) ->
      let pool = Block_store.Pool.create ~capacity:64 in
      let io = Io_stats.create () in
      let entries = Array.init n (fun i -> (i * 3, value_of i)) in
      let t = B.bulk_load ~fanout ~pool ~stats:io entries in
      B.check_invariants t && B.size t = n
      && Array.for_all (fun (k, v) -> B.find t k = Some v) entries
      && (n = 0 || B.min_binding t = Some entries.(0))
      && (n = 0 || B.max_binding t = Some entries.(n - 1)))

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

let test_bulk_load_rejects_unsorted () =
  let pool = Block_store.Pool.create ~capacity:8 in
  let io = Io_stats.create () in
  match B.bulk_load ~fanout:4 ~pool ~stats:io [| (2, "a"); (1, "b") |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_io_scaling () =
  (* A point lookup in a bulk-loaded tree should cost O(log_B n) I/Os
     with a cold-ish cache, far below n/B. *)
  let pool = Block_store.Pool.create ~capacity:4 in
  let io = Io_stats.create () in
  let n = 20_000 in
  let entries = Array.init n (fun i -> (i, value_of i)) in
  let t = B.bulk_load ~fanout:32 ~pool ~stats:io entries in
  Io_stats.reset io;
  ignore (B.find t (n / 2));
  let cost = Io_stats.reads io in
  Alcotest.(check bool)
    (Printf.sprintf "lookup cost %d is logarithmic" cost)
    true
    (cost <= B.height t + 1)

let test_empty_tree () =
  let t, _ = mk () in
  Alcotest.(check bool) "empty" true (B.is_empty t);
  Alcotest.(check (option string)) "find" None (B.find t 1);
  Alcotest.(check bool) "delete absent" false (B.delete t 1);
  Alcotest.(check bool) "min none" true (B.min_binding t = None);
  let seen = ref 0 in
  B.iter_range t ~lo:None ~hi:None (fun _ _ -> incr seen);
  Alcotest.(check int) "no elements" 0 !seen

let suite =
  ( "btree",
    [
      Alcotest.test_case "empty tree" `Quick test_empty_tree;
      Alcotest.test_case "iter_from stop" `Quick test_iter_from_stop;
      Alcotest.test_case "bulk rejects unsorted" `Quick test_bulk_load_rejects_unsorted;
      Alcotest.test_case "lookup io scaling" `Quick test_io_scaling;
      qtest prop_model;
      qtest prop_invariants;
      qtest prop_bulk_load;
      qtest prop_range;
    ] )
