(** The binary wire protocol.

    Every message is one {e frame}:

    {v
      len u32 | crc32(payload) u32 | payload (len bytes)
      payload = tag u8 | body            (little-endian throughout)
    v}

    — the same length-prefix + CRC-32 discipline as the WAL's frames,
    built on {!Segdb_io.Codec} and {!Segdb_io.Crc}. The CRC guards the
    payload, so a flipped bit on the wire surfaces as {!Crc_mismatch}
    rather than a garbage decode; the length prefix is bounded by
    {!max_frame}, so a corrupted header cannot make a peer allocate or
    wait for gigabytes.

    Decoding is total: malformed input of any shape maps to a typed
    {!protocol_error} — never an exception, never a hang. The blocking
    fd helpers ({!send}, {!recv}) run through the [net.write]/[net.read]
    failpoint sites, so the fault matrix covers the socket path. *)

open Segdb_geom

(** What a client can ask. Queries are read-only and therefore safe to
    retry; [Shutdown] requests a graceful drain.

    A peer answers a tag it does not know with
    [Error (Bad_request, _)] and keeps the stream up, so a client
    talking to an older peer degrades instead of wedging. Every batch
    travels as [Batch_ex]; tag 4, which carried a batch with neither a
    request id nor a trace flag, is not reused, so a peer that still
    sends it gets that answer. *)
type request =
  | Ping
  | Query of Vquery.t
  | Stats of [ `Text | `Json | `Prometheus ]
  | Shutdown
  | Batch_ex of { request_id : int; trace : bool; queries : Vquery.t array }
      (** A batch of queries, answered with {!Batch_ids}. A nonzero
          [request_id] (client-generated) is carried into every span
          the server records while serving it; [0] lets the server
          draw one. [trace] asks the server to bracket execution in an
          ["exec.batch"] span. *)
  | Trace_fetch of { request_id : int }
      (** Return the server's retained trace events for one request
          (as {!Trace_events}) — how a client reassembles the full
          client→server→storage timeline after a traced batch. *)
  | Slowlog of [ `Text | `Json ]
      (** Dump the server's slow-query log (as {!Slowlog_payload}). *)
  | Insert of Segment.t
      (** Commit one insert through the primary (answered {!Applied}).
          Applied idempotently, so a replay after a torn response is a
          no-op — which is what makes a write safe under the client's
          retry policy. A replica answers [Error (Not_primary, _)]. *)
  | Delete of Segment.t
      (** Commit one delete (full segment: id + geometry) — see
          {!Insert}. *)
  | Repl_subscribe of { epoch : int; from_lsn : int }
      (** A replica joins the primary's replication stream from its
          applied LSN, carrying the highest epoch it has seen. The
          primary answers {!Repl_records} when its in-memory tail still
          covers [from_lsn] at the same epoch, {!Repl_snapshot}
          (full-state catch-up) otherwise, and [Error (Fenced, _)] when
          [epoch] is {e newer} than its own — a primary that has been
          superseded must not stream stale history. After the answer
          the connection stays subscribed: new records are pushed as
          further {!Repl_records} frames. *)
  | Repl_ack of { epoch : int; lsn : int }
      (** The replica's applied-prefix acknowledgement, sent after each
          applied batch. Fire-and-forget (no response) unless the epoch
          is stale, which is answered [Error (Fenced, _)]. *)
  | Repl_status
      (** Replication introspection (answered {!Repl_status_payload}):
          role, epoch, committed LSN, and per-peer acknowledged LSNs —
          what the CLI's [repl-status] prints and CI derives replica
          lag from. *)
  | Promote of { epoch : int }
      (** Turn a replica into a writable primary at [epoch] (0 picks
          [current + 1]). Fenced: an epoch at or below the node's
          current one is refused, and promoting an existing primary is
          an idempotent no-op answered with its current epoch. *)

(** Typed failure channel carried in {!Error} responses. The split
    matters to the client's retry policy: [Overloaded] and
    [Corrupt_frame] are transient (retry with backoff), the rest are
    answers. *)
type error_code =
  | Overloaded  (** the bounded request queue was full — back off *)
  | Deadline  (** the request sat past its deadline; dropped unexecuted *)
  | Bad_request  (** a well-framed payload that does not decode *)
  | Corrupt_frame  (** framing-level damage: CRC mismatch, truncation,
                       oversized length — the stream is not trustworthy,
                       the server closes it, the client should retry *)
  | Server_error  (** the handler raised; message carries the details *)
  | Shutting_down  (** draining; no new work accepted *)
  | Not_primary
      (** a write or subscribe reached a replica — failover-able: a
          multi-endpoint client rotates to the next endpoint *)
  | Fenced
      (** the frame's epoch is stale (or, for a subscribe, newer than
          the answering node's): a revived stale primary is refused,
          not obeyed — definitive, never retried *)

(** One subscribed replica as the primary sees it: how far it has
    acknowledged, and how far the primary has pushed to it. The gap
    [sent_lsn - acked_lsn] is the in-flight window; [lsn - acked_lsn]
    (against the enclosing status) is its replication lag. *)
type repl_peer = { peer : string; acked_lsn : int; sent_lsn : int }

(** One node's replication standing, as answered to {!Repl_status}.

    The [Repl_status_payload] body changed shape in the monitoring
    release (it gained [progress_ms] and per-peer sent cursors) with no
    version negotiation: primaries, replicas, clients and the CLI are
    built from one tree and deployed together. A mixed-version pair
    decodes the old body as [Error (Bad_request, _)] / [Malformed] and
    keeps the stream up — status introspection degrades, replication
    itself does not touch this frame. *)
type repl_status = {
  role : string;  (** ["primary"] or ["replica"] *)
  epoch : int;
  lsn : int;  (** committed (primary) / applied (replica) LSN *)
  progress_ms : int;
      (** milliseconds since the last sign of replication life (commit,
          ack, resync, or — on a replica — any upstream frame); the
          staleness signal behind [/healthz]'s replica-stall rule *)
  peers : repl_peer list;
      (** on a primary: every subscribed replica's cursors *)
}

type response =
  | Pong
  | Ids of { ids : int list; complete : bool; faults : string list }
      (** sorted ids; [complete]/[faults] mirror {!Segdb_core.Segdb.Degraded} *)
  | Batch_ids of { results : int list array; complete : bool; faults : string list }
      (** element [i] is exactly [Segdb.query_ids db qs.(i)], sorted *)
  | Stats_payload of string
  | Error of error_code * string
  | Shutdown_ack
  | Trace_events of Segdb_obs.Trace.event list
      (** A {!Trace_fetch} answer: the server's retained events for
          the requested id, in recording order. Empty when
          observability was off or the ring wrapped past them. *)
  | Slowlog_payload of string
      (** A {!Slowlog} answer, pre-rendered in the requested format. *)
  | Applied of { lsn : int; changed : bool }
      (** A write landed: the primary's committed LSN after it, and
          whether the index changed ([false] = idempotent replay). *)
  | Repl_records of { epoch : int; from_lsn : int; records : string list }
      (** A contiguous run of WAL records starting at [from_lsn], in
          commit order; [records] are opaque {!Segdb_core.Segdb.op}
          encodings. Pushed to every subscribed replica as writes
          land. *)
  | Repl_snapshot of { epoch : int; lsn : int; segments : Segment.t array }
      (** Full-state catch-up: the primary's entire segment set as of
          [lsn]. Sent when the subscriber's [from_lsn] is no longer
          covered by the primary's in-memory tail, or when its epoch
          differs (divergent history is discarded, not merged). *)
  | Repl_status_payload of repl_status
  | Promoted of { epoch : int }

type protocol_error =
  | Truncated  (** the stream ended mid-frame *)
  | Oversized of int  (** length prefix beyond {!max_frame} *)
  | Crc_mismatch
  | Unknown_tag of int
  | Malformed of string  (** intact frame whose body does not decode *)

val max_frame : int
(** Hard ceiling on a payload length (16 MiB). *)

val header_bytes : int
(** Frame header size: 8. *)

val protocol_error_to_string : protocol_error -> string
val error_code_to_string : error_code -> string

(** {1 Pure encode/decode} *)

val encode_request : request -> string
(** The complete frame (header + payload). *)

val encode_response : response -> string

val decode_request : ?pos:int -> ?len:int -> string -> (request, protocol_error) result
(** Over a CRC-verified payload (no header): the [len] bytes from
    [pos], by default the whole string. *)

val decode_response : string -> (response, protocol_error) result

val decode_header : ?pos:int -> string -> (int * int, protocol_error) result
(** [(payload_len, crc)] from the {!header_bytes} bytes at [pos]
    (default 0). *)

val check_payload : crc:int -> string -> (string, protocol_error) result

(** {1 Served connections}

    A server connection's two buffers, each reused for the
    connection's life, so serving a request allocates no buffer per
    read or per response. Only a frame above 64 KiB gets a buffer of
    its own. *)

(** The receive side: bytes read from the socket, framed where they
    lie. One read may carry many frames or part of one. The buffer
    holds 64 KiB. It grows only with the bytes received, never with
    the length a header declares: it doubles when pending bytes fill
    it, and goes back to 64 KiB once they fit there again. *)
module Inbox : sig
  type t

  val create : unit -> t

  val fill : t -> (Bytes.t -> pos:int -> len:int -> int) -> int
  (** [fill t read] calls [read buf ~pos ~len] once to append at most
      [len] received bytes at [pos] of the buffer, and returns its
      result ([0] = end of stream). Call it only once {!next} has
      answered [Await]. *)

  type frame =
    | Await  (** no complete frame is buffered *)
    | Damaged of protocol_error
        (** framing damage: an oversized length or a CRC mismatch. The
            stream can no longer be trusted; every later call answers
            the same. *)
    | Request of (request, protocol_error) result
        (** one whole, CRC-checked frame, consumed; [Error] when its
            payload does not decode *)

  val next : t -> frame
end

(** The response side: the payload is encoded into a reused buffer
    and copied once behind its header into a reused frame buffer,
    which one write sends. Not synchronised: the caller holds the
    connection's write lock. *)
module Outbox : sig
  type t

  val create : unit -> t

  val send : t -> Unix.file_descr -> response -> int
  (** Encodes the response's frame into the buffers and writes it
      through {!Segdb_io.Failpoint.Io.send_all} ([net.write] site).
      Returns the frame's size. Raises [Unix.Unix_error] on connection
      death. *)
end

(** {1 Blocking fd transport} *)

val send : Unix.file_descr -> string -> unit
(** Writes a pre-encoded frame through {!Segdb_io.Failpoint.Io.send_all}
    ([net.write] site). Raises [Unix.Unix_error] on connection death. *)

val recv : ?timeout:float -> Unix.file_descr -> (string, protocol_error) result
(** Reads one frame and returns its CRC-verified payload. [Truncated]
    on end-of-stream, [Oversized]/[Crc_mismatch] per the header. With
    [timeout] (seconds), raises [Unix.Unix_error (ETIMEDOUT, _, _)] if
    the frame does not complete in time — the client treats that as a
    transient transport failure. Site: [net.read]. *)
