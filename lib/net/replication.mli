(** WAL-shipping replication: the primary/replica machinery behind the
    serving layer.

    The WAL (PR 1/PR 4) already totally orders every committed
    mutation; replication ships that order to warm standbys. Three
    pieces live here:

    - {!t}, one node's {e stream state}: role, fencing epoch, the
      committed LSN, an in-memory tail of recent records (what a
      reconnecting replica catches up from without a full snapshot),
      and per-peer acknowledgements. Wire writes and replicated
      applies both go through {!commit}, so they append through the
      same door.
    - {!Gate}, a writer-preference reader/writer gate: served queries
      enter as readers, replicated applies (and wire writes) as the
      writer — so a replica's readers always observe a consistent
      applied prefix, never a half-applied batch. The execution
      engine's per-domain cached readers survive each apply: a block
      it wrote is a miss in their shards.
    - {!tail}, the replica's subscription loop (its own domain): it
      connects upstream, subscribes from its applied LSN, applies
      pushed records via {!commit} under the gate, acknowledges,
      and reconnects with backoff after any transport damage — the
      catch-up protocol degrades from tail records to a full
      {!Wire.response.Repl_snapshot} automatically.

    {b LSN}: the count of records committed since the node's stream
    began — a position in the WAL's total order, independent of
    checkpoint truncation. {b Epoch fencing}: every [repl_*] frame
    carries the sender's epoch; {!promote} bumps it, and any node
    refuses stream data from a lower epoch, so a revived stale primary
    is refused, not obeyed. A subscriber with a {e lower} epoch is the
    one legitimate stale party: it is answered with a snapshot resync
    that discards its divergent history. *)

module Db := Segdb_core.Segdb

type role = Primary | Replica

val role_name : role -> string
(** ["primary"] / ["replica"]. *)

(** Writer-preference reader/writer gate. Readers are served queries
    (entered on the accept loop, exited from whichever worker domain
    completes the request); the single writer is a mutation batch. A
    waiting writer blocks new readers, so applies cannot starve. *)
module Gate : sig
  type t

  val create : unit -> t

  val enter_read : t -> unit
  (** Blocks while a writer is active or waiting. *)

  val exit_read : t -> unit

  val with_write : t -> (unit -> 'a) -> 'a
  (** Waits for in-flight readers to drain, runs [f] exclusively,
      releases. Not reentrant. *)
end

type t

val create : ?role:role -> ?epoch:int -> ?max_tail:int -> unit -> t
(** A fresh stream at LSN 0. [epoch] defaults to 1 for a primary and 0
    for a replica (0 = "has never seen a primary", so the first
    subscribe forces a snapshot resync). [max_tail] bounds the
    in-memory record tail (default 8192); a subscriber older than the
    retained tail is caught up by snapshot instead. *)

val commit : t -> Db.t -> Db.op -> bool
(** [Segdb.commit] the op, then {!append} its record to the stream.
    Returns whether the index changed. Callers hold the {!Gate} as
    writer. *)

val role : t -> role
val epoch : t -> int

val lsn : t -> int
(** The stream's committed LSN: [base_lsn + retained records]. *)

val base_lsn : t -> int
(** LSN of the oldest retained record; anything older needs a
    snapshot. *)

val append : t -> string -> unit
(** Append one committed record (what {!commit} calls). May drop the
    oldest half of the tail once it exceeds [max_tail]. *)

val records_from : t -> int -> string list option
(** The retained records from LSN [from] (exclusive of nothing —
    record [from] is the first returned), or [None] when [from] is
    below {!base_lsn} or beyond {!lsn}: the caller must snapshot. *)

val reset_to : t -> lsn:int -> unit
(** Empty the tail and rebase at [lsn] — what a replica does after
    installing a snapshot. *)

val set_epoch : t -> int -> unit
(** Adopt a higher epoch learned from upstream. Never lowers. *)

val promote : t -> ?epoch:int -> unit -> int
(** Flip to [Primary] at [epoch] (default/0: [current + 1]) and return
    the new epoch. Raises [Invalid_argument] if [epoch] is at or below
    the current one (fencing: epochs only move forward). *)

val ack : t -> peer:string -> int -> unit
(** Record a replica's acknowledged LSN. *)

val acks : t -> (string * int) list
(** Per-peer acknowledged LSNs, most recent ack per peer. *)

val seconds_since_progress : t -> float
(** Seconds since replication last showed a sign of life — the
    staleness signal behind the health endpoint's replica-stall rule.
    {!append}, {!ack} and {!reset_to} count as one, and so does every
    upstream frame the replica tail decodes (including idle status
    probes), so on a healthy replica it goes stale only when the
    upstream link does. *)

val status : t -> Wire.repl_status
(** This node's standing, ready to serve a {!Wire.request.Repl_status}.
    [sent_lsn] is reported equal to the ack for each peer — only the
    server knows the true per-connection push cursors and overlays them
    (see {!Server}). *)

val resync : Db.t -> Segdb_geom.Segment.t array -> int * int
(** Make [db]'s contents equal the snapshot's segment set by applying
    the difference (deletes then inserts) through the idempotent,
    unlogged replay path — returns [(deleted, inserted)]. The caller
    holds the write gate and then {!reset_to}s the stream. *)

(** {1 The replica tail} *)

type tail

val start_tail :
  connect:(unit -> Unix.file_descr) ->
  gate:Gate.t ->
  db:Db.t ->
  stream:t ->
  unit ->
  tail
(** Spawn the subscription loop in its own domain. [connect] returns a
    fresh socket to the upstream primary (raising on failure — the
    loop retries with backoff); pushed records are applied to [db]
    through {!commit} on [stream]. The loop exits when {!stop_tail} is
    called or the stream is promoted. Frames from a lower epoch than the
    stream's are refused: the connection is dropped and the refusal
    logged ([comp="repl"]) — a revived stale primary cannot feed a
    promoted replica. *)

val stop_tail : tail -> unit
(** Signal the loop to exit (async-signal-safe: flips an atomic). *)

val join_tail : tail -> unit
(** {!stop_tail} then join the domain. Idempotent. *)
