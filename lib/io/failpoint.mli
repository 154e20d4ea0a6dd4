(** Deterministic fault injection for the I/O stack.

    A {e site} is a named point in the code where a fault can be
    injected: the [fsync] wrapper, the WAL's frame append
    ([wal.append]), the snapshot writer ([snapshot.write]), the socket
    wrappers ([net.read], [net.write]) and the query entry
    ([segdb.query]). Sites are registered once at module
    initialization ({!site}) and consulted with {!fire} on every pass.

    The registry is disarmed by default, and a disarmed {!fire} costs a
    single [Atomic.get] — the same discipline as
    {!Segdb_obs.Control.enabled}, so production builds pay nothing
    measurable. Arming installs a {e plan} per site: an action, the hit
    number it triggers on, and whether it keeps firing afterwards.
    Randomness (bit positions, torn-prefix lengths) flows through a
    seeded {!Segdb_util.Rng}, so every injected failure is reproducible
    from the arming seed.

    Plans can be armed programmatically ({!arm}) or from the
    environment ({!arm_from_env} reads [SEGDB_FAILPOINTS], e.g.
    ["wal.append=crash@3;segdb.query=eio+"]) — which is how the CLI
    tools expose the harness without any code change. *)

exception Injected_crash of string
(** A hard "crash here" cut: the site name is the payload. Raised out
    of the faulted operation and never caught inside the library — the
    test harness treats it as the process dying at that instant. *)

(** What a site does when its plan triggers. *)
type action =
  | Eio  (** raise [Unix.EIO]; a one-shot plan models a transient
             error healed by the retry policy, a persistent plan a
             dead device *)
  | Short  (** short transfer: a read returns a strict prefix, a write
               persists one and then fails (retryable) *)
  | Bit_flip  (** flip one random bit of the transferred buffer —
                  silent corruption, to be caught by checksums *)
  | Torn  (** write a strict prefix of the buffer, then crash *)
  | Crash  (** raise {!Injected_crash} before touching anything *)

type site

val site : string -> site
(** Get-or-create the named site. Call once at module initialization
    and keep the handle; names are global. *)

val name : site -> string

val registered : unit -> string list
(** Every registered site name, sorted. Complete once the libraries
    are linked, since sites register at module initialization. *)

val armed : unit -> bool
(** One atomic load; [false] by default. *)

type plan = {
  at : int;  (** trigger on this hit number, 1-based *)
  persistent : bool;  (** keep firing from [at] on, vs once *)
  action : action;
}

val plan : ?at:int -> ?persistent:bool -> action -> plan
(** [at] defaults to 1, [persistent] to [false]. *)

val arm : ?seed:int -> (string * plan) list -> unit
(** Installs the plans (replacing any previous arming), resets every
    site's hit counter, and seeds the generator the injection helpers
    draw from. Unknown site names are accepted — the site may register
    later. *)

val disarm : unit -> unit

val arm_from_env : unit -> unit
(** Arms from [SEGDB_FAILPOINTS] if set (seed from
    [SEGDB_FAILPOINT_SEED], default 0). The spec grammar is
    [site=action\[@hit\]\[+\]] joined by [';' | ',']: [eio], [short],
    [flip], [torn], [crash]; [@N] sets the hit number; a trailing [+]
    makes the plan persistent. Malformed specs abort with a message on
    stderr, so a typo cannot silently disarm a fault run. *)

val parse_spec : string -> ((string * plan) list, string) result
(** The parser behind {!arm_from_env}: [Error] names the first
    malformed entry. Exposed so tests can check the grammar without
    touching the environment. *)

val fire : site -> action option
(** Consult the site: [None] when disarmed (one atomic load) or when
    the site's plan does not trigger on this hit. Hits are counted only
    while armed. *)

val hits : site -> int
(** Hits since the last {!arm}. *)

(** Hardened syscall wrappers shared by {!Wal}, the snapshot writer
    and the network layer. Each wrapper consults its fault site on every
    attempt, retries transient errors ([EINTR]/[EAGAIN] always, [EIO] a
    bounded number of times with exponential backoff), counts retries
    into [Segdb_obs.Metrics] as [io.retries] (when observability is
    on), and treats a persistently stalled 0-byte write as an error
    rather than spinning. *)
module Io : sig
  val write_all : site:site -> Unix.file_descr -> off:int -> Bytes.t -> unit
  (** Positional write of the whole buffer, firing [site] (the WAL's
      [wal.append], the snapshot's [snapshot.write]); the explicit
      offset makes retries idempotent — every attempt rewrites from
      [off]. *)

  val fsync : ?site:site -> Unix.file_descr -> unit
  (** Site: [fsync] unless overridden. *)

  (** {2 Socket wrappers}

      The same retry discipline over a stream, for the network serving
      layer ({!Segdb_net}). Streams cannot re-seek, so [Torn] changes
      meaning: instead of a crash cut it models the {e connection}
      dying mid-frame — a strict prefix reaches the wire, then the
      writer sees [ECONNRESET]. The process survives; the peer observes
      a truncated or CRC-mismatched frame and retries. *)

  val recv : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> int
  (** One [read(2)] into [buf.(pos..pos+len)], returning the byte count
      ([0] at end-of-stream). [EINTR]/[EAGAIN] retried, [EIO] bounded.
      Injected [Short]/[Torn] truncate the result to a strict prefix;
      [Bit_flip] corrupts one received bit (caught by the frame CRC).
      Site: [net.read]. *)

  val send_all : Unix.file_descr -> Bytes.t -> pos:int -> len:int -> unit
  (** Writes the whole range, looping over partial transfers. Injected
      [Short] caps one transfer (the loop continues — legal socket
      behaviour); [Bit_flip] corrupts one outgoing bit; [Torn] sends a
      strict prefix and raises [ECONNRESET]. Site: [net.write]. *)
end
