module R = Segdb_rtree.Rtree

type t = R.t

let name = "rtree"

let build (cfg : Vs_index.config) segs =
  R.bulk_load ~node_capacity:cfg.block ~pool:cfg.pool ~stats:cfg.stats segs

let insert = R.insert
let delete = R.delete
let query t q ~f = R.query t q ~f:(fun (s : Segdb_geom.Segment.t) -> f s.id)
let size = R.size
let block_count = R.block_count
let check_invariants = R.check_invariants
