module Db = Segdb_core.Segdb
module Metrics = Segdb_obs.Metrics
module Control = Segdb_obs.Control
module Log = Segdb_obs.Log
module Trace = Segdb_obs.Trace
open Segdb_geom

type role = Primary | Replica

let role_name = function Primary -> "primary" | Replica -> "replica"

(* ---------------- the reader/writer gate ---------------- *)

module Gate = struct
  type t = {
    m : Mutex.t;
    c : Condition.t;
    mutable readers : int;
    mutable writer : bool;  (** active *)
    mutable waiting : int;  (** writers queued — new readers hold back *)
  }

  let create () =
    { m = Mutex.create (); c = Condition.create (); readers = 0; writer = false;
      waiting = 0 }

  let enter_read t =
    Mutex.lock t.m;
    while t.writer || t.waiting > 0 do
      Condition.wait t.c t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m

  let exit_read t =
    Mutex.lock t.m;
    t.readers <- t.readers - 1;
    if t.readers = 0 then Condition.broadcast t.c;
    Mutex.unlock t.m

  let with_write t f =
    Mutex.lock t.m;
    t.waiting <- t.waiting + 1;
    while t.writer || t.readers > 0 do
      Condition.wait t.c t.m
    done;
    t.waiting <- t.waiting - 1;
    t.writer <- true;
    Mutex.unlock t.m;
    Fun.protect f ~finally:(fun () ->
        Mutex.lock t.m;
        t.writer <- false;
        Condition.broadcast t.c;
        Mutex.unlock t.m)
end

(* ---------------- the stream ---------------- *)

type t = {
  m : Mutex.t;
  mutable role_ : role;
  mutable epoch_ : int;
  mutable base : int;  (** LSN of [buf.(0)] *)
  mutable buf : string array;
  mutable len : int;
  mutable acks_ : (string * int) list;
  max_tail : int;
  mutable progress_ns : int;
      (** [Trace.now_ns] of the last sign of replication life: a
          commit, an ack, a resync, or (on a replica) any decoded
          upstream frame — what health probes measure staleness
          against *)
}

let create ?role ?epoch ?(max_tail = 8192) () =
  let role_ = Option.value role ~default:Primary in
  let epoch_ =
    match epoch with
    | Some e -> max 0 e
    | None -> ( match role_ with Primary -> 1 | Replica -> 0)
  in
  { m = Mutex.create (); role_; epoch_; base = 0; buf = Array.make 64 "";
    len = 0; acks_ = []; max_tail = max 16 max_tail;
    progress_ns = Trace.now_ns () }

let locked t f =
  Mutex.lock t.m;
  Fun.protect f ~finally:(fun () -> Mutex.unlock t.m)

let role t = locked t (fun () -> t.role_)
let epoch t = locked t (fun () -> t.epoch_)
let lsn t = locked t (fun () -> t.base + t.len)
let base_lsn t = locked t (fun () -> t.base)

let touch_progress t = locked t (fun () -> t.progress_ns <- Trace.now_ns ())
let ns_since_progress t = max 0 (Trace.now_ns () - t.progress_ns)
let seconds_since_progress t = locked t (fun () -> float_of_int (ns_since_progress t) /. 1e9)

let append t record =
  locked t @@ fun () ->
  t.progress_ns <- Trace.now_ns ();
  if t.len = Array.length t.buf then
    if t.len >= t.max_tail then begin
      (* drop the oldest half: a subscriber that far behind resyncs by
         snapshot anyway, and the tail stays bounded *)
      let drop = t.len / 2 in
      Array.blit t.buf drop t.buf 0 (t.len - drop);
      Array.fill t.buf (t.len - drop) drop "";
      t.base <- t.base + drop;
      t.len <- t.len - drop
    end
    else begin
      let bigger = Array.make (min t.max_tail (2 * t.len)) "" in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
  t.buf.(t.len) <- record;
  t.len <- t.len + 1

let records_from t from =
  locked t @@ fun () ->
  if from < t.base || from > t.base + t.len then None
  else Some (Array.to_list (Array.sub t.buf (from - t.base) (t.base + t.len - from)))

let reset_to t ~lsn =
  locked t @@ fun () ->
  Array.fill t.buf 0 t.len "";
  t.base <- lsn;
  t.len <- 0;
  t.progress_ns <- Trace.now_ns ()

let set_epoch t e = locked t (fun () -> if e > t.epoch_ then t.epoch_ <- e)

let promote t ?(epoch = 0) () =
  locked t @@ fun () ->
  let next = if epoch = 0 then t.epoch_ + 1 else epoch in
  if next <= t.epoch_ then
    invalid_arg
      (Printf.sprintf "Replication.promote: epoch %d is not above current %d" next
         t.epoch_);
  t.epoch_ <- next;
  t.role_ <- Primary;
  next

let ack t ~peer lsn =
  locked t @@ fun () ->
  t.progress_ns <- Trace.now_ns ();
  t.acks_ <- (peer, lsn) :: List.remove_assoc peer t.acks_

let acks t = locked t (fun () -> List.rev t.acks_)

(* [sent_lsn] starts equal to the ack: the stream does not know the
   per-connection push cursors. The server, which owns them, overlays
   the real values before answering a status frame. *)
let status t =
  locked t @@ fun () ->
  {
    Wire.role = role_name t.role_;
    epoch = t.epoch_;
    lsn = t.base + t.len;
    progress_ms = ns_since_progress t / 1_000_000;
    peers =
      List.rev_map
        (fun (peer, acked) -> { Wire.peer; acked_lsn = acked; sent_lsn = acked })
        t.acks_;
  }

let commit t db op =
  let changed = Db.commit db op in
  append t (Db.encode_op op);
  changed

(* ---------------- snapshot resync ---------------- *)

(* Equality must cover geometry, not just id: a diverged history can
   hold the same id with different endpoints, and "refused, not
   obeyed" means the divergent version is deleted and replaced. *)
let resync db snapshot =
  let want = Hashtbl.create (Array.length snapshot) in
  Array.iter (fun (s : Segment.t) -> Hashtbl.replace want s.Segment.id s) snapshot;
  let deletes = ref [] in
  Array.iter
    (fun (s : Segment.t) ->
      match Hashtbl.find_opt want s.Segment.id with
      | Some s' when s' = s -> Hashtbl.remove want s.Segment.id (* already right *)
      | Some _ | None -> deletes := Db.Op_delete s :: !deletes)
    (Db.segments db);
  let inserts = Hashtbl.fold (fun _ s ops -> Db.Op_insert s :: ops) want [] in
  Db.apply_wal_ops db !deletes;
  Db.apply_wal_ops db inserts;
  (List.length !deletes, List.length inserts)

(* ---------------- the replica tail ---------------- *)

type tail = {
  stop : bool Atomic.t;
  dom : unit Domain.t;
  mutable joined : bool;
}

let c_applied = Metrics.counter Metrics.default "repl.records_applied"
let c_resyncs = Metrics.counter Metrics.default "repl.resyncs"
let c_refused = Metrics.counter Metrics.default "repl.refused"

(* One subscription session over one connection. Returns when the
   connection is no longer useful; the caller reconnects. *)
let session ~gate ~db ~stream ~stop fd =
  Wire.send fd
    (Wire.encode_request
       (Wire.Repl_subscribe { epoch = epoch stream; from_lsn = lsn stream }));
  let apply_records ~e ~from_lsn records =
    if e < epoch stream then begin
      if Control.enabled () then Metrics.incr c_refused;
      Log.warn ~comp:"repl" "stale primary refused" (fun () ->
          [ Log.i "their_epoch" e; Log.i "our_epoch" (epoch stream) ]);
      false
    end
    else begin
      set_epoch stream e;
      if from_lsn <> lsn stream then false (* desynchronized: resubscribe *)
      else begin
        Gate.with_write gate (fun () ->
            List.iter
              (fun record ->
                match Db.decode_op record with
                | Some op -> ignore (commit stream db op)
                | None ->
                    (* keep the LSN aligned with upstream even for a
                       record this binary cannot decode *)
                    append stream record)
              records);
        if Control.enabled () then Metrics.add c_applied (List.length records);
        Wire.send fd
          (Wire.encode_request (Wire.Repl_ack { epoch = epoch stream; lsn = lsn stream }));
        true
      end
    end
  in
  let continue = ref true in
  (* Liveness guard: a connection can wedge without ever erroring — a
     short read drops bytes the kernel already handed over, and the
     misaligned stream then parses as timeouts and garbage frames
     indefinitely (a run of zero bytes even passes the CRC as an empty
     frame). Any frame that decodes counts as progress; starving the
     deadline abandons the connection and resubscribes from our lsn. *)
  let progress_deadline_ns = 2_000_000_000 in
  let last_progress = ref (Trace.now_ns ()) in
  let progress () =
    last_progress := Trace.now_ns ();
    (* surface liveness on the stream too: the health endpoint calls a
       replica stalled when [seconds_since_progress] starves, and a
       healthy idle link refreshes it through the status probes below *)
    touch_progress stream
  in
  while (not (Atomic.get stop)) && role stream = Replica && !continue do
    if Trace.now_ns () - !last_progress > progress_deadline_ns then begin
      Log.warn ~comp:"repl" "no upstream progress; reconnecting" (fun () ->
          [ Log.i "lsn" (lsn stream) ]);
      continue := false
    end
    else
      match Wire.recv ~timeout:0.25 fd with
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> (
          (* idle tick: probe the link round-trip. On a healthy link the
             reply decodes and refreshes the progress deadline; on a
             wedged one it either mis-frames into a decode error or
             starves the deadline — both force a clean reconnect. *)
          try Wire.send fd (Wire.encode_request Wire.Repl_status)
          with Unix.Unix_error (_, _, _) -> continue := false)
      | exception Unix.Unix_error (_, _, _) -> continue := false
      | Result.Error _ -> continue := false
      | Result.Ok payload -> (
          match Wire.decode_response payload with
          | Result.Ok (Wire.Repl_records { epoch = e; from_lsn; records }) ->
              progress ();
              continue := apply_records ~e ~from_lsn records
          | Result.Ok (Wire.Repl_snapshot { epoch = e; lsn = l; segments }) ->
              progress ();
              if e < epoch stream then begin
                if Control.enabled () then Metrics.incr c_refused;
                Log.warn ~comp:"repl" "stale primary snapshot refused" (fun () ->
                    [ Log.i "their_epoch" e; Log.i "our_epoch" (epoch stream) ]);
                continue := false
              end
              else begin
                let deleted, inserted =
                  Gate.with_write gate (fun () -> resync db segments)
                in
                (* adopt the epoch only after the segments landed: status
                   probes treat epoch adoption as proof of catch-up *)
                set_epoch stream e;
                reset_to stream ~lsn:l;
                if Control.enabled () then Metrics.incr c_resyncs;
                Log.info ~comp:"repl" "snapshot resync applied" (fun () ->
                    [ Log.i "lsn" l; Log.i "deleted" deleted; Log.i "inserted" inserted ]);
                Wire.send fd
                  (Wire.encode_request
                     (Wire.Repl_ack { epoch = epoch stream; lsn = lsn stream }))
              end
          | Result.Ok (Wire.Error (Wire.Fenced, msg)) ->
              (* the upstream is behind our epoch and knows it; it will
                 not stream — back off and retry until it is replaced *)
              if Control.enabled () then Metrics.incr c_refused;
              Log.warn ~comp:"repl" "upstream fenced us off" (fun () ->
                  [ Log.s "msg" msg ]);
              continue := false
          | Result.Ok (Wire.Error (_, _)) -> continue := false
          | Result.Ok (Wire.Repl_status_payload st) ->
              (* the probe's answer. Beyond proving the link is live, it
                 exposes stream gaps: the primary advances its cursor as
                 it pushes and never retransmits, so a frame lost in
                 transit leaves it ahead of us forever on an otherwise
                 healthy connection. The socket is FIFO — any records
                 pushed before this answer were already applied above —
                 so "upstream ahead while we are idle" can only mean a
                 hole; resubscribing from our lsn streams it again. *)
              progress ();
              if st.Wire.epoch >= epoch stream && st.Wire.lsn > lsn stream then begin
                Log.warn ~comp:"repl" "upstream ahead of idle replica; resubscribing"
                  (fun () ->
                    [ Log.i "upstream_lsn" st.Wire.lsn; Log.i "lsn" (lsn stream) ]);
                continue := false
              end
          | Result.Ok _ ->
              (* some other response routed here; harmless, but proof
                 the link is live *)
              progress ()
          | Result.Error _ ->
              (* a healthy upstream never sends an undecodable frame —
                 the stream is misaligned; reconnect rather than guess *)
              continue := false)
  done

let tail_loop ~connect ~gate ~db ~stream ~stop =
  let backoff = ref 0.02 in
  while (not (Atomic.get stop)) && role stream = Replica do
    (match connect () with
    | exception _ -> ()
    | fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
          (fun () ->
            backoff := 0.02;
            try session ~gate ~db ~stream ~stop fd with
            | Unix.Unix_error (_, _, _) -> ()
            | e ->
                (* the tail domain must survive anything a session can
                   throw — a dead tail is a silent stall, not an error *)
                Log.warn ~comp:"repl" "tail session failed; reconnecting" (fun () ->
                    [ Log.s "error" (Printexc.to_string e) ])));
    (* sleep in short slices so stop/promote are honoured promptly *)
    if (not (Atomic.get stop)) && role stream = Replica then begin
      let left = ref !backoff in
      while !left > 0.0 && (not (Atomic.get stop)) && role stream = Replica do
        Unix.sleepf 0.02;
        left := !left -. 0.02
      done;
      backoff := Float.min 0.5 (!backoff *. 2.0)
    end
  done

let start_tail ~connect ~gate ~db ~stream () =
  let stop = Atomic.make false in
  let dom = Domain.spawn (fun () -> tail_loop ~connect ~gate ~db ~stream ~stop) in
  { stop; dom; joined = false }

let stop_tail t = Atomic.set t.stop true

let join_tail t =
  stop_tail t;
  if not t.joined then begin
    t.joined <- true;
    Domain.join t.dom
  end
