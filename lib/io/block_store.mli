(** Simulated secondary storage.

    A block store holds typed blocks addressed by integers. A bounded LRU
    buffer pool sits in front of a simulated disk (a hash table): reading
    a non-resident block charges one read I/O, evicting or flushing a
    dirty block charges one write I/O. Resident accesses are free, exactly
    matching the external-memory model the paper's bounds are stated in.

    All structures of one index share a single {!Io_stats.t} so that an
    index's total cost is observable at one place, and they may share a
    single buffer [pool] so that the memory budget is honest across
    sub-structures.

    {b Read contexts.} When a {!Read_context.t} is installed on the
    current domain ({!Read_context.with_reader}), [read] switches to a
    pure lookup path: shared pool, shared stats and store tables are
    consulted without being modified, cold misses are charged to the
    reader's own counter and cached in the reader's own LRU shard, and
    [alloc]/[write]/[free]/[flush] raise [Invalid_argument]. Each store
    keeps a write epoch that [write] and [free] bump; a reader's shard
    entry from an older epoch is a miss, so a reader may outlive any
    number of writes. Reads under a context also poll its deadline
    ({!Read_context.set_deadline}). Outside a context the behaviour
    (and the accounting the experiments measure) is exactly the
    historical single-handle one. *)

type addr = int

val null : addr
(** An address never returned by [alloc]; usable as a sentinel. *)

(** Shared buffer pool: a capacity in blocks, common to every store
    attached to it. *)
module Pool : sig
  type t

  val create : capacity:int -> t
  (** [capacity] is the number of resident blocks across all attached
      stores. *)

  val capacity : t -> int
  val resident : t -> int
end

module Make (P : sig
  type t
end) : sig
  type t

  val create : ?name:string -> pool:Pool.t -> stats:Io_stats.t -> unit -> t
  (** A store of blocks with payload [P.t] backed by [pool] and charging
      I/Os to [stats]. *)

  val alloc : t -> P.t -> addr
  (** Allocates a fresh block, resident and dirty. Charges an alloc (not
      a transfer). *)

  val read : t -> addr -> P.t
  (** Fetches the block, charging one read on a pool miss (to the
      reader's stats when a read context is installed, to [stats]
      otherwise). Raises [Invalid_argument] on a freed or unknown
      address. *)

  val write : t -> addr -> P.t -> unit
  (** Replaces the block's payload, resident and dirty, and bumps the
      store's write epoch. Charges nothing now, not even on a pool miss,
      because an overwrite does not need the old contents; the dirty
      block is charged one write when it is evicted or flushed. *)

  val free : t -> addr -> unit
  (** Discards the block without write-back and bumps the store's write
      epoch. *)

  val flush : t -> unit
  (** Writes back all dirty resident blocks of this store. *)

  val block_count : t -> int
  (** Number of live (allocated, not freed) blocks: the structure's space
      in blocks. *)
end
