open Segdb_io
open Segdb_geom

(** Common interface of the vertical-segment-query indexes.

    Every index is built against one {!config}: a shared buffer pool, a
    shared I/O counter, and the block size [B]. The experiments measure
    an operation by snapshotting [stats] around it.

    {b Reader/writer contract.} The query operations ([query] and
    everything built on it — counts and id lists) never
    mutate the index. [insert]/[delete] require exclusive access. A
    {!reader} makes the read half of that contract operational:
    queries run under one touch no shared state at all — I/O is
    charged to the reader's own counter and cold blocks land in the
    reader's own LRU shard — so any number of domains can query one
    index concurrently, each with its own reader. *)

type config = {
  pool : Block_store.Pool.t;
  stats : Io_stats.t;
  block : int; (** the paper's [B]: items per block / node capacity *)
  cascade : bool; (** Solution 2: fractional cascading in [G] *)
}

val config :
  ?pool_blocks:int -> ?block:int -> ?cascade:bool -> unit -> config
(** Defaults: a 64-block pool, [block = 64], cascading on. The pool is
    deliberately small relative to index sizes so that I/O counts
    reflect structure traversals rather than cache hits. *)

type reader = Read_context.t
(** A read context for this index family: per-reader {!Io_stats.t} plus
    a private LRU shard. See {!Read_context}. *)

val reader : ?cache_blocks:int -> config -> reader
(** A fresh reader for indexes built against [config]. The private
    shard defaults to the shared pool's capacity, so a reader's memory
    budget matches the writer's. Do not share a reader across configs
    (block addresses are only unique within one pool). *)

val with_reader : reader -> (unit -> 'a) -> 'a
(** Runs [f] with the reader installed on the current domain:
    {!Block_store} reads go through it, and any index mutation raises
    [Invalid_argument]. *)

val reader_io : reader -> Io_stats.t
(** The reader's own counter: the cold misses this reader paid. *)

module type S = sig
  type t

  val name : string

  val build : config -> Segment.t array -> t
  (** Bulk construction. Segment ids must be distinct. *)

  val insert : t -> Segment.t -> unit

  val delete : t -> Segment.t -> bool
  (** Removes the segment (matched by id and geometry); returns whether
      it was present. Amortized logarithmic: the structures use local
      removal plus periodic rebuilds. *)

  val query : t -> Vquery.t -> f:(int -> unit) -> unit
  (** Calls [f] exactly once with the id of each stored segment
      intersecting the query. Once follows from where the index stores
      a segment, not from a table kept per query; turning ids back into
      segments is {!Segdb}'s job. *)

  val size : t -> int
  val block_count : t -> int

  val check_invariants : t -> bool
  (** The backend's structural soundness (PST heap and x-order,
      interval-tree containment, the cascade's d-property, slab
      placement — whatever the backend defines); [true] when it has
      none. Backs {!Segdb.validate}. *)
end

val query_ids : (module S with type t = 'a) -> 'a -> Vquery.t -> int list
(** Sorted ids of the answer — the comparison form used by tests. *)

val query_ids_r :
  (module S with type t = 'a) -> reader -> 'a -> Vquery.t -> int list
(** {!query_ids} under {!with_reader}: I/O is charged to {!reader_io}
    and the shared pool, the shared counter and all index state stay
    untouched. Safe to call from several domains at once (one reader
    per domain) as long as no writer runs. *)
