open Segdb_geom
module Codec = Segdb_io.Codec
module Crc = Segdb_io.Crc
module Failpoint = Segdb_io.Failpoint
module Trace = Segdb_obs.Trace
module Seg_file = Segdb_core.Seg_file

type request =
  | Ping
  | Query of Vquery.t
  | Stats of [ `Text | `Json | `Prometheus ]
  | Shutdown
  | Batch_ex of { request_id : int; trace : bool; queries : Vquery.t array }
  | Trace_fetch of { request_id : int }
  | Slowlog of [ `Text | `Json ]
  | Insert of Segment.t
  | Delete of Segment.t
  | Repl_subscribe of { epoch : int; from_lsn : int }
  | Repl_ack of { epoch : int; lsn : int }
  | Repl_status
  | Promote of { epoch : int }

type error_code =
  | Overloaded
  | Deadline
  | Bad_request
  | Corrupt_frame
  | Server_error
  | Shutting_down
  | Not_primary
  | Fenced

type repl_peer = { peer : string; acked_lsn : int; sent_lsn : int }

type repl_status = {
  role : string;
  epoch : int;
  lsn : int;
  progress_ms : int;
  peers : repl_peer list;
}

type response =
  | Pong
  | Ids of { ids : int list; complete : bool; faults : string list }
  | Batch_ids of { results : int list array; complete : bool; faults : string list }
  | Stats_payload of string
  | Error of error_code * string
  | Shutdown_ack
  | Trace_events of Trace.event list
  | Slowlog_payload of string
  | Applied of { lsn : int; changed : bool }
  | Repl_records of { epoch : int; from_lsn : int; records : string list }
  | Repl_snapshot of { epoch : int; lsn : int; segments : Segment.t array }
  | Repl_status_payload of repl_status
  | Promoted of { epoch : int }

type protocol_error =
  | Truncated
  | Oversized of int
  | Crc_mismatch
  | Unknown_tag of int
  | Malformed of string

let max_frame = 1 lsl 24
let header_bytes = 8

let protocol_error_to_string = function
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes > %d max)" n max_frame
  | Crc_mismatch -> "frame CRC mismatch"
  | Unknown_tag t -> Printf.sprintf "unknown frame tag %d" t
  | Malformed m -> "malformed frame body: " ^ m

let error_code_to_string = function
  | Overloaded -> "overloaded"
  | Deadline -> "deadline exceeded"
  | Bad_request -> "bad request"
  | Corrupt_frame -> "corrupt frame"
  | Server_error -> "server error"
  | Shutting_down -> "shutting down"
  | Not_primary -> "not primary"
  | Fenced -> "fenced (stale epoch)"

(* ---------------- payload codecs ---------------- *)

(* A query is three f64s; the infinite bounds of rays and lines travel
   as IEEE infinities, and decode re-routes through the matching
   [Vquery] constructor so the round-trip is exact. *)
let write_vquery b (q : Vquery.t) =
  Codec.W.f64 b q.Vquery.x;
  Codec.W.f64 b q.Vquery.ylo;
  Codec.W.f64 b q.Vquery.yhi

let read_vquery r =
  let x = Codec.R.f64 r in
  let ylo = Codec.R.f64 r in
  let yhi = Codec.R.f64 r in
  if Float.is_nan x then raise (Codec.Corrupt "NaN query abscissa");
  if ylo = Float.neg_infinity && yhi = Float.infinity then Vquery.line ~x
  else if yhi = Float.infinity then Vquery.ray_up ~x ~ylo
  else if ylo = Float.neg_infinity then Vquery.ray_down ~x ~yhi
  else Vquery.segment ~x ~ylo ~yhi

let vquery_codec : Vquery.t Codec.t = { Codec.write = write_vquery; read = read_vquery }
let vqueries_codec = Codec.array vquery_codec
let ids_codec = Codec.(list int)
let faults_codec = Codec.(list string)
let results_codec = Codec.(array (list int))

let fmt_to_tag = function `Text -> 0 | `Json -> 1 | `Prometheus -> 2

let fmt_of_tag = function
  | 0 -> `Text
  | 1 -> `Json
  | 2 -> `Prometheus
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown stats format %d" t))

let dump_fmt_to_tag = function `Text -> 0 | `Json -> 1

let dump_fmt_of_tag = function
  | 0 -> `Text
  | 1 -> `Json
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown slowlog format %d" t))

(* Trace events travel with every field explicit; [u64] holds any
   non-negative OCaml int, which all of them are by construction. *)
let write_event b (e : Trace.event) =
  Codec.W.u64 b e.Trace.seq;
  Codec.W.str b e.Trace.phase;
  Codec.W.u64 b e.Trace.depth;
  Codec.W.u64 b e.Trace.t0_ns;
  Codec.W.u64 b e.Trace.dur_ns;
  Codec.W.u64 b e.Trace.blocks;
  Codec.W.u64 b e.Trace.request_id;
  Codec.W.u64 b e.Trace.dom

let read_event r =
  let seq = Codec.R.u64 r in
  let phase = Codec.R.str r in
  let depth = Codec.R.u64 r in
  let t0_ns = Codec.R.u64 r in
  let dur_ns = Codec.R.u64 r in
  let blocks = Codec.R.u64 r in
  let request_id = Codec.R.u64 r in
  let dom = Codec.R.u64 r in
  { Trace.seq; phase; depth; t0_ns; dur_ns; blocks; request_id; dom }

let event_codec : Trace.event Codec.t = { Codec.write = write_event; read = read_event }
let events_codec = Codec.list event_codec

(* Replication payloads: records are opaque WAL record bytes (the
   [Segdb.op] encoding), snapshots carry the full segment set, peers
   carry a peer string with its acknowledged and last-sent LSNs. *)
let records_codec = Codec.(list string)

let write_repl_peer b { peer; acked_lsn; sent_lsn } =
  Codec.W.str b peer;
  Codec.W.u64 b acked_lsn;
  Codec.W.u64 b sent_lsn

let read_repl_peer r =
  let peer = Codec.R.str r in
  let acked_lsn = Codec.R.u64 r in
  let sent_lsn = Codec.R.u64 r in
  { peer; acked_lsn; sent_lsn }

let peers_codec = Codec.list { Codec.write = write_repl_peer; read = read_repl_peer }

let write_repl_status b (st : repl_status) =
  Codec.W.str b st.role;
  Codec.W.u64 b st.epoch;
  Codec.W.u64 b st.lsn;
  Codec.W.u64 b st.progress_ms;
  peers_codec.Codec.write b st.peers

let read_repl_status r =
  let role = Codec.R.str r in
  let epoch = Codec.R.u64 r in
  let lsn = Codec.R.u64 r in
  let progress_ms = Codec.R.u64 r in
  let peers = peers_codec.Codec.read r in
  { role; epoch; lsn; progress_ms; peers }

let code_to_tag = function
  | Overloaded -> 1
  | Deadline -> 2
  | Bad_request -> 3
  | Corrupt_frame -> 4
  | Server_error -> 5
  | Shutting_down -> 6
  | Not_primary -> 7
  | Fenced -> 8

let code_of_tag = function
  | 1 -> Overloaded
  | 2 -> Deadline
  | 3 -> Bad_request
  | 4 -> Corrupt_frame
  | 5 -> Server_error
  | 6 -> Shutting_down
  | 7 -> Not_primary
  | 8 -> Fenced
  | t -> raise (Codec.Corrupt (Printf.sprintf "unknown error code %d" t))

(* Request tags live below 128, response tags at or above — a stray
   response parsed as a request (or vice versa) is an Unknown_tag, not
   a confusion. *)

let request_payload req =
  let b = Buffer.create 64 in
  (match req with
  | Ping -> Codec.W.u8 b 1
  | Query q ->
      Codec.W.u8 b 2;
      write_vquery b q
  | Stats fmt ->
      Codec.W.u8 b 5;
      Codec.W.u8 b (fmt_to_tag fmt)
  | Shutdown -> Codec.W.u8 b 6
  | Batch_ex { request_id; trace; queries } ->
      Codec.W.u8 b 7;
      Codec.W.u64 b request_id;
      Codec.bool.Codec.write b trace;
      vqueries_codec.Codec.write b queries
  | Trace_fetch { request_id } ->
      Codec.W.u8 b 8;
      Codec.W.u64 b request_id
  | Slowlog fmt ->
      Codec.W.u8 b 9;
      Codec.W.u8 b (dump_fmt_to_tag fmt)
  | Insert s ->
      Codec.W.u8 b 10;
      Seg_file.codec.Codec.write b s
  | Delete s ->
      Codec.W.u8 b 11;
      Seg_file.codec.Codec.write b s
  | Repl_subscribe { epoch; from_lsn } ->
      Codec.W.u8 b 12;
      Codec.W.u64 b epoch;
      Codec.W.u64 b from_lsn
  | Repl_ack { epoch; lsn } ->
      Codec.W.u8 b 13;
      Codec.W.u64 b epoch;
      Codec.W.u64 b lsn
  | Repl_status -> Codec.W.u8 b 14
  | Promote { epoch } ->
      Codec.W.u8 b 15;
      Codec.W.u64 b epoch);
  Buffer.contents b

let write_response b resp =
  match resp with
  | Pong -> Codec.W.u8 b 128
  | Ids { ids; complete; faults } ->
      Codec.W.u8 b 129;
      Codec.bool.Codec.write b complete;
      faults_codec.Codec.write b faults;
      ids_codec.Codec.write b ids
  | Batch_ids { results; complete; faults } ->
      Codec.W.u8 b 131;
      Codec.bool.Codec.write b complete;
      faults_codec.Codec.write b faults;
      results_codec.Codec.write b results
  | Stats_payload s ->
      Codec.W.u8 b 132;
      Codec.W.str b s
  | Error (code, msg) ->
      Codec.W.u8 b 133;
      Codec.W.u8 b (code_to_tag code);
      Codec.W.str b msg
  | Shutdown_ack -> Codec.W.u8 b 134
  | Trace_events evs ->
      Codec.W.u8 b 135;
      events_codec.Codec.write b evs
  | Slowlog_payload s ->
      Codec.W.u8 b 136;
      Codec.W.str b s
  | Applied { lsn; changed } ->
      Codec.W.u8 b 137;
      Codec.W.u64 b lsn;
      Codec.bool.Codec.write b changed
  | Repl_records { epoch; from_lsn; records } ->
      Codec.W.u8 b 138;
      Codec.W.u64 b epoch;
      Codec.W.u64 b from_lsn;
      records_codec.Codec.write b records
  | Repl_snapshot { epoch; lsn; segments } ->
      Codec.W.u8 b 139;
      Codec.W.u64 b epoch;
      Codec.W.u64 b lsn;
      Seg_file.array_codec.Codec.write b segments
  | Repl_status_payload st ->
      Codec.W.u8 b 140;
      write_repl_status b st
  | Promoted { epoch } ->
      Codec.W.u8 b 141;
      Codec.W.u64 b epoch

let response_payload resp =
  let b = Buffer.create 64 in
  write_response b resp;
  Buffer.contents b

(* Total decoding: anything [Codec] or a [Vquery] constructor rejects
   becomes [Malformed]; an unconsumed suffix is [Malformed] too (frame
   boundaries are exact). *)
let decoding ?pos ?len payload read_body =
  match
    let r = Codec.R.of_string ?pos ?len payload in
    let tag = Codec.R.u8 r in
    match read_body r tag with
    | None -> Result.Error (Unknown_tag tag)
    | Some v ->
        if Codec.R.remaining r > 0 then
          Result.Error
            (Malformed (Printf.sprintf "%d trailing bytes" (Codec.R.remaining r)))
        else Result.Ok v
  with
  | v -> v
  | exception Codec.Corrupt m -> Result.Error (Malformed m)
  | exception Invalid_argument m -> Result.Error (Malformed m)

let decode_request ?pos ?len payload =
  decoding ?pos ?len payload (fun r tag ->
      match tag with
      | 1 -> Some Ping
      | 2 -> Some (Query (read_vquery r))
      | 5 -> Some (Stats (fmt_of_tag (Codec.R.u8 r)))
      | 6 -> Some Shutdown
      | 7 ->
          let request_id = Codec.R.u64 r in
          let trace = Codec.bool.Codec.read r in
          let queries = vqueries_codec.Codec.read r in
          Some (Batch_ex { request_id; trace; queries })
      | 8 -> Some (Trace_fetch { request_id = Codec.R.u64 r })
      | 9 -> Some (Slowlog (dump_fmt_of_tag (Codec.R.u8 r)))
      | 10 -> Some (Insert (Seg_file.codec.Codec.read r))
      | 11 -> Some (Delete (Seg_file.codec.Codec.read r))
      | 12 ->
          let epoch = Codec.R.u64 r in
          let from_lsn = Codec.R.u64 r in
          Some (Repl_subscribe { epoch; from_lsn })
      | 13 ->
          let epoch = Codec.R.u64 r in
          let lsn = Codec.R.u64 r in
          Some (Repl_ack { epoch; lsn })
      | 14 -> Some Repl_status
      | 15 -> Some (Promote { epoch = Codec.R.u64 r })
      | _ -> None)

let decode_response payload =
  decoding payload (fun r tag ->
      match tag with
      | 128 -> Some Pong
      | 129 ->
          let complete = Codec.bool.Codec.read r in
          let faults = faults_codec.Codec.read r in
          let ids = ids_codec.Codec.read r in
          Some (Ids { ids; complete; faults })
      | 131 ->
          let complete = Codec.bool.Codec.read r in
          let faults = faults_codec.Codec.read r in
          let results = results_codec.Codec.read r in
          Some (Batch_ids { results; complete; faults })
      | 132 -> Some (Stats_payload (Codec.R.str r))
      | 133 ->
          let code = code_of_tag (Codec.R.u8 r) in
          let msg = Codec.R.str r in
          Some (Error (code, msg))
      | 134 -> Some Shutdown_ack
      | 135 -> Some (Trace_events (events_codec.Codec.read r))
      | 136 -> Some (Slowlog_payload (Codec.R.str r))
      | 137 ->
          let lsn = Codec.R.u64 r in
          let changed = Codec.bool.Codec.read r in
          Some (Applied { lsn; changed })
      | 138 ->
          let epoch = Codec.R.u64 r in
          let from_lsn = Codec.R.u64 r in
          let records = records_codec.Codec.read r in
          Some (Repl_records { epoch; from_lsn; records })
      | 139 ->
          let epoch = Codec.R.u64 r in
          let lsn = Codec.R.u64 r in
          let segments = Seg_file.array_codec.Codec.read r in
          Some (Repl_snapshot { epoch; lsn; segments })
      | 140 -> Some (Repl_status_payload (read_repl_status r))
      | 141 -> Some (Promoted { epoch = Codec.R.u64 r })
      | _ -> None)

(* ---------------- framing ---------------- *)

(* The one header writer: [buf.[header_bytes, header_bytes + len)]
   holds a payload; its length and CRC go in front of it. *)
let write_header buf len =
  Bytes.set_int32_le buf 0 (Int32.of_int len);
  Bytes.set_int32_le buf 4 (Int32.of_int (Crc.bytes buf ~pos:header_bytes ~len))

let frame payload =
  let len = String.length payload in
  let b = Bytes.create (header_bytes + len) in
  Bytes.blit_string payload 0 b header_bytes len;
  write_header b len;
  Bytes.unsafe_to_string b

let encode_request req = frame (request_payload req)
let encode_response resp = frame (response_payload resp)

let decode_header ?pos s =
  let r = Codec.R.of_string ?pos s in
  let len = Codec.R.u32 r in
  let crc = Codec.R.u32 r in
  if len > max_frame then Result.Error (Oversized len) else Result.Ok (len, crc)

let check_payload ~crc payload =
  if Crc.string payload = crc then Result.Ok payload else Result.Error Crc_mismatch

(* ---------------- served connections ---------------- *)

module Inbox = struct
  (* [buf.[start, stop)] is received and not yet framed. A frame is
     parsed where it lies: the header, the CRC over its byte range and
     the decoder all read [buf] by offset. The decoder copies whatever
     it keeps, so the string view never outlives the call. *)
  type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int }

  let initial_bytes = 65536
  let create () = { buf = Bytes.create initial_bytes; start = 0; stop = 0 }

  type frame = Await | Damaged of protocol_error | Request of (request, protocol_error) result

  (* Room is made from the bytes received, never from the length a
     header declares. When the buffer is drained or full, the pending
     bytes move to its front: a buffer they fill doubles (up to the
     largest frame), and a grown one goes back to the usual size once
     they fit there. So a buffer is at most the usual size or twice the
     most bytes ever pending at once, whatever a header claims. *)
  let fill t read =
    let have = t.stop - t.start and size = Bytes.length t.buf in
    if have = 0 || t.stop = size then begin
      let want =
        if have = size then min (2 * size) (header_bytes + max_frame)
        else if have < initial_bytes then initial_bytes
        else size
      in
      let dst = if want = size then t.buf else Bytes.create want in
      Bytes.blit t.buf t.start dst 0 have;
      t.buf <- dst;
      t.start <- 0;
      t.stop <- have
    end;
    let n = read t.buf ~pos:t.stop ~len:(Bytes.length t.buf - t.stop) in
    t.stop <- t.stop + n;
    n

  let next t =
    let have = t.stop - t.start in
    if have < header_bytes then Await
    else
      let view = Bytes.unsafe_to_string t.buf in
      match decode_header ~pos:t.start view with
      | Result.Error e -> Damaged e
      | Result.Ok (len, crc) ->
          if have < header_bytes + len then Await
          else
            let pos = t.start + header_bytes in
            if Crc.bytes t.buf ~pos ~len <> crc then Damaged Crc_mismatch
            else begin
              t.start <- pos + len;
              Request (decode_request ~pos ~len view)
            end
end

module Outbox = struct
  type t = { payload : Buffer.t; mutable frame : Bytes.t }

  (* responses above this size get buffers of their own, so one
     snapshot or stats dump does not pin its size to the connection *)
  let kept_bytes = 65536
  let create () = { payload = Buffer.create 256; frame = Bytes.create 4096 }

  let send t fd resp =
    Buffer.clear t.payload;
    write_response t.payload resp;
    let len = Buffer.length t.payload in
    let total = header_bytes + len in
    if Bytes.length t.frame < total then t.frame <- Bytes.create total;
    Buffer.blit t.payload 0 t.frame header_bytes len;
    write_header t.frame len;
    let frame = t.frame in
    if total > kept_bytes then begin
      Buffer.reset t.payload;
      t.frame <- Bytes.create 4096
    end;
    Failpoint.Io.send_all fd frame ~pos:0 ~len:total;
    total
end

(* ---------------- blocking fd transport ---------------- *)

let send fd s =
  (* the frame bytes are never reused, so handing the string's bytes to
     the (possibly bit-flipping) writer is safe *)
  Failpoint.Io.send_all fd (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let wait_readable fd deadline_ns =
  match deadline_ns with
  | None -> ()
  | Some d ->
      let rec go () =
        let left = float_of_int (d - Trace.now_ns ()) /. 1e9 in
        if left <= 0.0 then raise (Unix.Unix_error (Unix.ETIMEDOUT, "net.recv", ""));
        match Unix.select [ fd ] [] [] left with
        | [], _, _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "net.recv", ""))
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()

(* Fill [buf] up to [len]; a clean end-of-stream stops early. *)
let recv_exact deadline fd buf ~len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    wait_readable fd deadline;
    let n = Failpoint.Io.recv fd buf ~pos:!got ~len:(len - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

(* [hdr] and [payload] are fresh and never written after the read, so
   they are handed on as strings without a copy *)
let recv ?timeout fd =
  let deadline = Option.map (fun s -> Trace.now_ns () + int_of_float (s *. 1e9)) timeout in
  let hdr = Bytes.create header_bytes in
  if recv_exact deadline fd hdr ~len:header_bytes < header_bytes then Result.Error Truncated
  else
    match decode_header (Bytes.unsafe_to_string hdr) with
    | Result.Error e -> Result.Error e
    | Result.Ok (len, crc) ->
        let payload = Bytes.create len in
        if recv_exact deadline fd payload ~len < len then Result.Error Truncated
        else check_payload ~crc (Bytes.unsafe_to_string payload)
