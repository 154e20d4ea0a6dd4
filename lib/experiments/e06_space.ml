(* E6 — space: Theorem 1(i) gives O(n) blocks for Solution 1, Theorem
   2(i) gives O(n log2 B) for Solution 2; the PSTs and interval trees
   are linear. Reported as blocks per n/B. The bounds hold after
   updates too, so E6b builds each solution on the first half of the
   data, inserts the second half in generation order, and compares its
   blocks with the bulk build of all of it. *)

open Segdb_util
module W = Segdb_workload.Workload
module Db = Segdb_core.Segdb

let id = "e6"
let title = "E6: space (blocks) vs N"
let validates = "Theorem 1(i) O(n) vs Theorem 2(i) O(n log2 B)"

let run (p : Harness.params) =
  let span = 1000.0 in
  let table =
    Table.create ~title
      ~columns:
        [ "n"; "n/B"; "naive"; "rtree"; "sol1"; "sol2"; "sol1/(n/B)"; "sol2/(n/B)" ]
  in
  let after =
    Table.create ~title:"E6b: space after inserting half in generation order"
      ~columns:[ "n"; "n/B"; "sol1"; "sol2"; "sol1/built"; "sol2/built" ]
  in
  List.iter
    (fun n ->
      let segs = W.uniform (Rng.create p.seed) ~n ~span in
      let blocks b = Db.block_count (Backends.build b segs) in
      let inserted b =
        let k = n / 2 in
        let db = Backends.build b (Array.sub segs 0 k) in
        Array.iter (Db.insert db) (Array.sub segs k (Array.length segs - k));
        Db.block_count db
      in
      let nb = float_of_int n /. float_of_int Harness.block in
      let s1 = blocks "solution1" and s2 = blocks "solution2" in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float ~decimals:0 nb;
          Table.cell_int (blocks "naive");
          Table.cell_int (blocks "rtree");
          Table.cell_int s1;
          Table.cell_int s2;
          Table.cell_float ~decimals:2 (float_of_int s1 /. nb);
          Table.cell_float ~decimals:2 (float_of_int s2 /. nb);
        ];
      let i1 = inserted "solution1" and i2 = inserted "solution2" in
      Table.add_row after
        [
          Table.cell_int n;
          Table.cell_float ~decimals:0 nb;
          Table.cell_int i1;
          Table.cell_int i2;
          Table.cell_float ~decimals:2 (float_of_int i1 /. float_of_int s1);
          Table.cell_float ~decimals:2 (float_of_int i2 /. float_of_int s2);
        ])
    (Harness.sweep_n p);
  [ Harness.Table table; Harness.Table after ]
