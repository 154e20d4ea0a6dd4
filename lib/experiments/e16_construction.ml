(* E16 — construction costs: the I/O actually charged while bulk-building
   each index (allocation write-back under the small pool), against n/B.
   No table here measures the sort of the endpoint lists the builds
   start from. *)

open Segdb_io
open Segdb_util
module W = Segdb_workload.Workload
module Db = Segdb_core.Segdb

let id = "e16"
let title = "E16: construction costs — index build I/O"
let validates = "bulk-build I/O of every backend grows linear-ish in n/B"

let run (p : Harness.params) =
  let sweep = if p.quick then [ 1 lsl 10; 1 lsl 12; 1 lsl 14 ] else Harness.sweep_n p in
  let table =
    Table.create ~title:"E16b: index build I/O (charged during bulk construction)"
      ~columns:[ "n"; "n/B"; "naive"; "rtree"; "sol1"; "sol2" ]
  in
  List.iter
    (fun n ->
      let segs = W.uniform (Rng.create p.seed) ~n ~span:1000.0 in
      let build_io backend =
        let db = Backends.build backend segs in
        Table.cell_int (Io_stats.total_io (Db.io db))
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_int (n / Harness.block);
          build_io "naive";
          build_io "rtree";
          build_io "solution1";
          build_io "solution2";
        ])
    sweep;
  [ Harness.Table table ]
