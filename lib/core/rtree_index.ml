module R = Segdb_rtree.Rtree

type t = R.t

let name = "rtree"

let build (cfg : Vs_index.config) segs =
  R.bulk_load ~node_capacity:cfg.block ~pool:cfg.pool ~stats:cfg.stats segs

let insert = R.insert
let delete = R.delete
let query = R.query
let iter_all t ~f = R.iter t f
let size = R.size
let block_count = R.block_count
let check_invariants = R.check_invariants
