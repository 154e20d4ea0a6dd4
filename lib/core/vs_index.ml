open Segdb_io
open Segdb_geom

type config = {
  pool : Block_store.Pool.t;
  stats : Io_stats.t;
  block : int;
  cascade : bool;
}

let config ?(pool_blocks = 64) ?(block = 64) ?(cascade = true) () =
  if block < 4 then invalid_arg "Vs_index.config: block must be >= 4";
  {
    pool = Block_store.Pool.create ~capacity:pool_blocks;
    stats = Io_stats.create ();
    block;
    cascade;
  }

type reader = Read_context.t

let reader ?cache_blocks (cfg : config) =
  let cache_blocks =
    match cache_blocks with
    | Some c -> c
    | None -> Block_store.Pool.capacity cfg.pool
  in
  Read_context.create ~cache_blocks ()

let with_reader = Read_context.with_reader
let reader_io = Read_context.stats

module type S = sig
  type t

  val name : string
  val build : config -> Segment.t array -> t
  val insert : t -> Segment.t -> unit
  val delete : t -> Segment.t -> bool
  val query : t -> Vquery.t -> f:(int -> unit) -> unit
  val size : t -> int
  val block_count : t -> int
  val check_invariants : t -> bool
end

let query_ids (type a) (module M : S with type t = a) (t : a) q =
  let acc = ref [] in
  M.query t q ~f:(fun id -> acc := id :: !acc);
  List.sort compare !acc

let query_ids_r m r t q = with_reader r (fun () -> query_ids m t q)
