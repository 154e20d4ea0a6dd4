open Segdb_io
open Segdb_geom

(** The segment database: the user-facing facade.

    A [Segdb.t] stores a set of NCT plane segments under one of the
    index backends and answers generalized vertical-segment queries
    ({!Vquery.t}). Fixed-slope (non-vertical) query families are
    supported by rotating the database with {!Transform} before
    indexing — see [examples/sloped_queries.ml].

    {[
      let db =
        Segdb.create ~backend:`Solution2
          [| Segment.make ~id:0 (0., 0.) (4., 2.); ... |]
      in
      let hits = Segdb.query db (Vquery.segment ~x:1.0 ~ylo:0.0 ~yhi:5.0) in
      ...
    ]} *)

type backend =
  [ `Naive  (** block scan; the baseline floor *)
  | `Rtree  (** STR-packed R-tree; the practical comparator *)
  | `Solution1  (** the paper's linear-space two-level structure *)
  | `Solution2  (** the paper's improved structure, with cascading *)
  | `Solution2_nofc  (** Solution 2 with fractional cascading disabled *)
  ]

type t

val create :
  ?backend:backend ->
  ?block:int ->
  ?pool_blocks:int ->
  Segment.t array ->
  t
(** Builds an index over the segments (default backend [`Solution2],
    block size 64, buffer pool 64 blocks). Ids must be distinct; use
    {!of_segments} to assign them. *)

val of_segments : ?backend:backend -> ?block:int -> ?pool_blocks:int -> (float * float) list list -> t
(** Convenience: each element is a polyline (list of points) whose
    consecutive point pairs become segments; ids are assigned
    sequentially. The caller is responsible for the NCT property. *)

val insert : t -> Segment.t -> unit
(** Semi-dynamic insertion; the new segment must not cross stored ones
    (NCT) for complexity guarantees, though answers remain exact for
    touching-only violations. With a WAL attached the record is made
    durable {e before} the index is touched. Raises [Invalid_argument]
    if a segment with the same id is already stored — uniformly across
    backends, so replayed and replicated records stay idempotent. *)

val delete : t -> Segment.t -> bool
(** Removes the segment (matched by id and geometry); amortized
    logarithmic via local removal plus periodic rebuilds. Logged like
    {!insert} when a WAL is attached. *)

val generation : t -> int
(** Monotone counter bumped by every structural mutation ({!insert},
    effective {!delete}, WAL replay). Long-lived readers — e.g. the
    execution engine's per-domain cached readers — compare it against
    the value captured at reader creation to detect that their private
    block shard may hold stale pages and must be rebuilt. *)

val query : t -> Vquery.t -> Segment.t list
val query_iter : t -> Vquery.t -> f:(Segment.t -> unit) -> unit
val query_ids : t -> Vquery.t -> int list
val count : t -> Vquery.t -> int

(** {1 Degraded results}

    A result that may be partial: what was collected before a fault,
    an explicit completeness flag, and the faults hit. The typed
    channel lets a caller serve what survives a quarantined page or a
    failing device instead of turning one bad block into a failed
    request. *)
module Degraded : sig
  type 'a t = {
    value : 'a;  (** everything collected before the first fault *)
    complete : bool;  (** [true] iff [faults = []]: the answer is exact *)
    faults : string list;
  }

  val ok : 'a -> 'a t
  val partial : 'a -> string list -> 'a t
  val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
end

val query_safe : t -> Vquery.t -> Segment.t list Degraded.t
(** {!query}, catching storage faults (undecodable blocks, [Unix]
    errors that survived the retry policy) into a {!Degraded.t} instead
    of raising. Injected crashes ([Failpoint.Injected_crash]) still
    propagate — they model process death, not a servable fault. *)

val size : t -> int
val block_count : t -> int

val iter_all : t -> f:(Segment.t -> unit) -> unit
(** Every stored segment once, in unspecified order. *)

val segments : t -> Segment.t array
(** Every stored segment, sorted by id — what {!save} persists. *)

val io : t -> Io_stats.t
(** The index's I/O counter (shared by all its sub-structures). *)

(** {1 Parallel read path}

    Queries never mutate the index, and with a {!reader} they do not
    touch shared mutable state either: each reader owns its I/O counter
    and LRU shard, so any number of domains may query one database
    concurrently. The contract is reader/writer: [insert], [delete] and
    [checkpoint] require exclusive access (no concurrent readers); the
    query family is freely shareable between writes. Mutating under an
    installed reader raises [Invalid_argument]. *)

type reader = Vs_index.reader

val reader : ?cache_blocks:int -> t -> reader
(** A fresh read context for this database. [cache_blocks] sizes the
    reader's private LRU shard (default: the shared pool's capacity).
    Readers are cheap; use one per domain, never share one across
    databases. *)

val reader_io : reader -> Io_stats.t
(** The reader's own counter — cold misses this reader paid; its
    [writes] and [allocs] stay zero by construction. *)

val with_reader : reader -> (unit -> 'a) -> 'a
(** Installs the reader on the current domain for the duration of the
    callback; any [Segdb] query API used inside runs through it. *)

val query_ids_r : t -> reader -> Vquery.t -> int list
(** {!query_ids} through a reader: identical answer, I/O charged to the
    reader, shared state untouched. *)

val query_iter_r : t -> reader -> Vquery.t -> f:(Segment.t -> unit) -> unit

val count_r : t -> reader -> Vquery.t -> int

val backend : t -> backend
val backend_name : t -> string

val backend_of_string : string -> backend option
val all_backends : (string * backend) list

(** {1 Persistence}

    A snapshot (see {!Snapshot} for the file format) holds the segment
    set plus, by default, a marshaled image of the live index. Opening
    a snapshot written by the same executable restores the image —
    no rebuild, cold buffer pool, so the first queries measure the
    paper's cold-open cost; any other reader falls back to rebuilding
    from the segment section and answers identically.

    A write-ahead log makes [insert]/[delete] durable between
    snapshots: each operation is appended (and fsynced, by default) to
    the log before the index is touched, and {!attach_wal} replays the
    log's intact prefix — acknowledged operations survive a crash, torn
    tails are truncated. {!checkpoint} snapshots and then empties the
    log. *)

val save : ?image:bool -> t -> string -> unit
(** Writes a snapshot atomically (temp file + rename). [image:false]
    omits the marshaled index — smaller and binary-independent, at the
    cost of a rebuild on open. *)

val open_db : ?use_image:bool -> string -> t
(** Reopens a snapshot; [use_image:false] forces the rebuild path.
    Raises {!Snapshot.Corrupt_snapshot} on a damaged file. *)

type open_mode = Restored_image | Rebuilt

val open_db_mode : ?use_image:bool -> string -> t * open_mode
(** Like {!open_db}, also reporting which path was taken. *)

val attach_wal : ?sync:bool -> t -> string -> int
(** Opens (creating if absent) the WAL at the path, truncates a torn
    tail, replays the surviving records into the index, and attaches the
    log so subsequent [insert]/[delete] are logged. Returns the number
    of records replayed. [sync] (default true) fsyncs every append. *)

type op = Op_insert of Segment.t | Op_delete of Segment.t
(** A WAL record, decoded. *)

val scan_wal : string -> op list * int
(** The decoded operations in the log's valid prefix, plus how many
    intact-but-undecodable records were skipped — without opening the
    log for append, truncating its tail, or touching any index. Backs
    [recover --dry-run] and [repair]. *)

val apply_wal_ops : t -> op list -> unit
(** Replays decoded operations into the index, idempotently (an
    already-present insert or already-absent delete is a no-op), and
    without logging them anywhere. *)

val pp_op : Format.formatter -> op -> unit

val encode_op : op -> string
(** The exact WAL/replication record bytes for [op] — what {!insert}
    appends to an attached log and what the replication stream ships. *)

val decode_op : string -> op option
(** Inverse of {!encode_op}; [None] on an undecodable record. *)

val commit : t -> op -> bool
(** [insert]/[delete] with replay semantics: the op is logged to the
    attached WAL (if any) and announced to the commit hook like a local
    mutation, but applied {e idempotently} — an insert whose id is
    already present or a delete that misses is a no-op instead of an
    error. Returns whether the index changed. This is the write path
    for operations that may be retried or replayed (the server's wire
    writes, a replica applying its upstream's stream). *)

val set_commit_hook : t -> (op -> unit) option -> unit
(** Installs (or clears) a hook observing every committed mutation —
    local {!insert}/{!delete} and replayed {!commit}s alike — invoked
    right after the record is logged, before it is applied, on the
    mutating domain. The replication stream taps the WAL's total order
    through this. WAL replay on {!attach_wal} does {e not} notify (the
    hook is installed on an already-recovered database). At most one
    hook; installing replaces the previous one. *)

val wal_path : t -> string option
val detach_wal : t -> unit

val checkpoint : ?image:bool -> t -> string -> unit
(** {!save}, then truncate the attached WAL (if any): the snapshot now
    carries everything the log did. *)

val validate : ?queries:int -> ?seed:int -> t -> string list
(** Deep integrity check, findings reported rather than raised: id
    uniqueness, the NCT precondition (plane sweep over the stored
    set), the backend's structural invariants (PST heap and x-order,
    interval-tree containment, the cascade's d-property — whatever the
    backend defines), and, when [queries > 0], that many seeded random
    queries cross-checked against a freshly built naive index. [[]]
    means the database is sound. *)

(** {1 Fixed-slope query families}

    The paper's footnote: non-vertical query directions reduce to the
    vertical case by rotating the coordinate axes. [Sloped] owns that
    reduction: it rotates the database once at build time and rotates
    each query segment on the fly. *)

module Sloped : sig
  type db := t
  type t

  val create :
    ?backend:backend -> ?block:int -> ?pool_blocks:int -> slope:float -> Segment.t array -> t
  (** Indexes the segments for query segments of slope [slope]. *)

  val query : t -> p1:float * float -> p2:float * float -> Segment.t list
  (** [p1]-[p2] must lie on a line of slope [slope] (up to float noise);
      answers are the original (unrotated) segments. *)

  val count : t -> p1:float * float -> p2:float * float -> int
  val db : t -> db
  (** The underlying rotated database (for stats). *)
end
