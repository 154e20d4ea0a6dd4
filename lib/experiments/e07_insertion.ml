(* E7 — Theorem 1(iii) / Theorem 2(iii): amortized insertion cost.
   Builds an index on half the data, inserts the other half one by one
   and reports the amortized I/Os per insert (rebuild storms included —
   that is what "amortized" means here). *)

open Segdb_io
open Segdb_geom
open Segdb_util
module W = Segdb_workload.Workload
module Pst = Segdb_pst.Pst
module Itree = Segdb_itree.Interval_tree
module Vs = Segdb_core.Vs_index
module S1 = Segdb_core.Solution1
module S2 = Segdb_core.Solution2

let id = "e7"
let title = "E7: amortized insertion I/O vs N"
let validates = "Theorems 1(iii), 2(iii), Lemma 3(iii): amortized logarithmic updates"

let amortized io insert items =
  let before = Io_stats.snapshot io in
  Array.iter insert items;
  let d = Io_stats.diff before (Io_stats.snapshot io) in
  float_of_int (Io_stats.snapshot_total d) /. float_of_int (max 1 (Array.length items))

let run (p : Harness.params) =
  let span = 1000.0 in
  let table =
    Table.create ~title ~columns:[ "n"; "pst"; "itree"; "rtree"; "sol1"; "sol2"; "log2 n" ]
  in
  let sweep = if p.quick then [ 1 lsl 10; 1 lsl 11; 1 lsl 12 ] else Harness.sweep_n p in
  List.iter
    (fun n ->
      let rng = Rng.create p.seed in
      let segs = W.uniform rng ~n ~span in
      let k = n / 2 in
      let head = Array.sub segs 0 k and tail = Array.sub segs k (Array.length segs - k) in
      (* line-based PST on its own workload *)
      let pst_cost =
        let lsegs = W.line_based (Rng.create p.seed) ~n ~vspan:span ~umax:100.0 in
        let io = Io_stats.create () in
        let pool = Block_store.Pool.create ~capacity:Harness.pool_blocks in
        let t = Pst.blocked ~node_capacity:Harness.block ~pool ~stats:io (Array.sub lsegs 0 k) in
        amortized io (Pst.insert t) (Array.sub lsegs k (n - k))
      in
      let itree_cost =
        let io = Io_stats.create () in
        let pool = Block_store.Pool.create ~capacity:Harness.pool_blocks in
        let ivl (s : Segment.t) = { Itree.lo = s.Segment.x1; hi = s.Segment.x2; seg = s } in
        let t =
          Itree.build ~leaf_capacity:Harness.block ~pool ~stats:io (Array.map ivl head)
        in
        amortized io (fun s -> Itree.insert t (ivl s)) tail
      in
      let solution_cost (module M : Vs.S) =
        let cfg = Vs.config ~pool_blocks:Harness.pool_blocks ~block:Harness.block () in
        let t = M.build cfg head in
        amortized cfg.stats (M.insert t) tail
      in
      Table.add_row table
        [
          Table.cell_int n;
          Table.cell_float ~decimals:1 pst_cost;
          Table.cell_float ~decimals:1 itree_cost;
          Table.cell_float ~decimals:1 (solution_cost (module Segdb_core.Rtree_index));
          Table.cell_float ~decimals:1 (solution_cost (module S1));
          Table.cell_float ~decimals:1 (solution_cost (module S2));
          Table.cell_float ~decimals:1 (Harness.log2 (float_of_int n));
        ])
    sweep;
  [ Harness.Table table ]
