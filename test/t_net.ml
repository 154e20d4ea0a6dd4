(* Network layer: the wire codec (round-trip property, typed negative
   frames, totality over arbitrary bytes), loopback serving parity
   against the in-process engine, client retry under armed socket
   faults, backpressure and deadlines. *)

open Segdb_net
module Codec = Segdb_io.Codec
module Failpoint = Segdb_io.Failpoint
module Obs = Segdb_obs
module Metrics = Segdb_obs.Metrics
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng
module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec
module Vquery = Segdb_geom.Vquery

let qtest = QCheck_alcotest.to_alcotest

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let resp_name = function
  | Wire.Pong -> "pong"
  | Wire.Ids _ -> "ids"
  | Wire.Batch_ids _ -> "batch_ids"
  | Wire.Stats_payload _ -> "stats_payload"
  | Wire.Error (c, m) -> Printf.sprintf "error %s: %s" (Wire.error_code_to_string c) m
  | Wire.Shutdown_ack -> "shutdown_ack"
  | Wire.Trace_events _ -> "trace_events"
  | Wire.Slowlog_payload _ -> "slowlog_payload"
  | Wire.Applied _ -> "applied"
  | Wire.Repl_records _ -> "repl_records"
  | Wire.Repl_snapshot _ -> "repl_snapshot"
  | Wire.Repl_status_payload _ -> "repl_status_payload"
  | Wire.Promoted _ -> "promoted"

(* ---------------- generators ---------------- *)

let gen_coord =
  QCheck.Gen.(map (fun i -> float_of_int i /. 8.0) (int_range (-80_000) 80_000))

let gen_vquery =
  QCheck.Gen.(
    gen_coord >>= fun x ->
    oneof
      [
        return (Vquery.line ~x);
        map (fun ylo -> Vquery.ray_up ~x ~ylo) gen_coord;
        map (fun yhi -> Vquery.ray_down ~x ~yhi) gen_coord;
        map2
          (fun a b -> Vquery.segment ~x ~ylo:(Float.min a b) ~yhi:(Float.max a b))
          gen_coord gen_coord;
      ])

let gen_segment =
  QCheck.Gen.(
    map
      (fun ((id, (xa, ya)), (xb, yb)) ->
        Segdb_geom.Segment.make ~id (xa, ya) (xb, yb))
      (tup2
         (tup2 (int_bound 1_000_000) (tup2 gen_coord gen_coord))
         (tup2 gen_coord gen_coord)))

(* A batch frame with no request id and no trace flag. *)
let batch queries = Wire.Batch_ex { request_id = 0; trace = false; queries }

let gen_request =
  QCheck.Gen.(
    oneof
      [
        return Wire.Ping;
        map (fun q -> Wire.Query q) gen_vquery;
        map (fun f -> Wire.Stats f) (oneofl [ `Text; `Json; `Prometheus ]);
        return Wire.Shutdown;
        map3
          (fun request_id trace qs ->
            Wire.Batch_ex { request_id; trace; queries = Array.of_list qs })
          (int_bound 1_000_000_000) bool
          (list_size (int_bound 8) gen_vquery);
        map (fun request_id -> Wire.Trace_fetch { request_id }) (int_bound 1_000_000_000);
        map (fun f -> Wire.Slowlog f) (oneofl [ `Text; `Json ]);
        map (fun s -> Wire.Insert s) gen_segment;
        map (fun s -> Wire.Delete s) gen_segment;
        map2
          (fun epoch from_lsn -> Wire.Repl_subscribe { epoch; from_lsn })
          (int_bound 1_000) (int_bound 1_000_000);
        map2
          (fun epoch lsn -> Wire.Repl_ack { epoch; lsn })
          (int_bound 1_000) (int_bound 1_000_000);
        return Wire.Repl_status;
        map (fun epoch -> Wire.Promote { epoch }) (int_bound 1_000);
      ])

let gen_ids = QCheck.Gen.(list_size (int_bound 16) (int_bound 1_000_000))
let gen_text = QCheck.Gen.(string_size (int_bound 64))

let gen_response =
  QCheck.Gen.(
    oneof
      [
        return Wire.Pong;
        map3
          (fun ids complete faults -> Wire.Ids { ids; complete; faults })
          gen_ids bool
          (list_size (int_bound 3) gen_text);
        map3
          (fun rs complete faults ->
            Wire.Batch_ids { results = Array.of_list rs; complete; faults })
          (list_size (int_bound 5) gen_ids)
          bool
          (list_size (int_bound 3) gen_text);
        map (fun s -> Wire.Stats_payload s) gen_text;
        map2
          (fun c m -> Wire.Error (c, m))
          (oneofl
             [
               Wire.Overloaded;
               Wire.Deadline;
               Wire.Bad_request;
               Wire.Corrupt_frame;
               Wire.Server_error;
               Wire.Shutting_down;
               Wire.Not_primary;
               Wire.Fenced;
             ])
          gen_text;
        return Wire.Shutdown_ack;
        map
          (fun evs -> Wire.Trace_events evs)
          (list_size (int_bound 6)
             (map
                (fun ((seq, phase, depth), (t0_ns, dur_ns, blocks), (request_id, dom)) ->
                  {
                    Obs.Trace.seq;
                    phase;
                    depth;
                    t0_ns;
                    dur_ns;
                    blocks;
                    request_id;
                    dom;
                  })
                (tup3
                   (tup3 (int_bound 100_000) gen_text (int_bound 10))
                   (tup3 (int_bound max_int) (int_bound 1_000_000_000) (int_bound 10_000))
                   (tup2 (int_bound max_int) (int_bound 64)))));
        map (fun s -> Wire.Slowlog_payload s) gen_text;
        map2
          (fun lsn changed -> Wire.Applied { lsn; changed })
          (int_bound 1_000_000) bool;
        map3
          (fun epoch from_lsn records ->
            Wire.Repl_records { epoch; from_lsn; records })
          (int_bound 1_000) (int_bound 1_000_000)
          (list_size (int_bound 6) gen_text);
        map3
          (fun epoch lsn segs ->
            Wire.Repl_snapshot { epoch; lsn; segments = Array.of_list segs })
          (int_bound 1_000) (int_bound 1_000_000)
          (list_size (int_bound 6) gen_segment);
        map
          (fun ((role, epoch), (lsn, progress_ms), peers) ->
            Wire.Repl_status_payload { Wire.role; epoch; lsn; progress_ms; peers })
          (tup3
             (tup2 (oneofl [ "primary"; "replica" ]) (int_bound 1_000))
             (tup2 (int_bound 1_000_000) (int_bound 60_000))
             (list_size (int_bound 4)
                (map
                   (fun ((peer, acked_lsn), sent_lsn) ->
                     { Wire.peer; acked_lsn; sent_lsn })
                   (tup2 (tup2 gen_text (int_bound 1_000_000)) (int_bound 1_000_000)))));
        map (fun epoch -> Wire.Promoted { epoch }) (int_bound 1_000);
      ])

(* ---------------- wire codec ---------------- *)

(* Walk the full framing path: header decode, length check, CRC check. *)
let payload_of_frame frame =
  let n = String.length frame in
  if n < Wire.header_bytes then Result.Error Wire.Truncated
  else
    match Wire.decode_header (String.sub frame 0 Wire.header_bytes) with
    | Result.Error _ as e -> e
    | Result.Ok (len, crc) ->
        if n <> Wire.header_bytes + len then
          Result.Error (Wire.Malformed "frame length mismatch")
        else Wire.check_payload ~crc (String.sub frame Wire.header_bytes len)

let prop_request_roundtrip =
  QCheck.Test.make ~name:"wire requests round-trip through a framed encode" ~count:500
    (QCheck.make gen_request)
    (fun req ->
      match payload_of_frame (Wire.encode_request req) with
      | Result.Ok payload -> Wire.decode_request payload = Result.Ok req
      | Result.Error _ -> false)

let prop_response_roundtrip =
  QCheck.Test.make ~name:"wire responses round-trip through a framed encode" ~count:500
    (QCheck.make gen_response)
    (fun resp ->
      match payload_of_frame (Wire.encode_response resp) with
      | Result.Ok payload -> Wire.decode_response payload = Result.Ok resp
      | Result.Error _ -> false)

let prop_decode_total =
  QCheck.Test.make ~name:"decode is total over arbitrary bytes" ~count:1000
    QCheck.(string_of_size Gen.(int_bound 64))
    (fun s ->
      (match Wire.decode_request s with Result.Ok _ | Result.Error _ -> true)
      && match Wire.decode_response s with Result.Ok _ | Result.Error _ -> true)

let header len crc =
  let b = Buffer.create 8 in
  Codec.W.u32 b len;
  Codec.W.u32 b crc;
  Buffer.contents b

let test_negative_frames () =
  (* oversized length prefix: rejected before any allocation *)
  (match Wire.decode_header (header (Wire.max_frame + 1) 0) with
  | Result.Error (Wire.Oversized n) ->
      Alcotest.(check int) "oversized carries the length" (Wire.max_frame + 1) n
  | _ -> Alcotest.fail "oversized header accepted");
  (* CRC mismatch *)
  let frame = Wire.encode_request Wire.Ping in
  let len, crc =
    match Wire.decode_header (String.sub frame 0 Wire.header_bytes) with
    | Result.Ok hc -> hc
    | Result.Error e ->
        Alcotest.failf "good header rejected: %s" (Wire.protocol_error_to_string e)
  in
  let payload = String.sub frame Wire.header_bytes len in
  Alcotest.(check bool) "good payload passes" true
    (Wire.check_payload ~crc payload = Result.Ok payload);
  (match Wire.check_payload ~crc:(crc lxor 1) payload with
  | Result.Error Wire.Crc_mismatch -> ()
  | _ -> Alcotest.fail "bad crc accepted");
  (* unknown tags, both directions: a response tag is not a request *)
  (match Wire.decode_request "\x63" with
  | Result.Error (Wire.Unknown_tag 99) -> ()
  | _ -> Alcotest.fail "unknown request tag accepted");
  (match Wire.decode_response "\x07" with
  | Result.Error (Wire.Unknown_tag 7) -> ()
  | _ -> Alcotest.fail "request tag accepted as a response");
  (* empty payload, truncated body, trailing garbage: Malformed *)
  (match Wire.decode_request "" with
  | Result.Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "empty payload accepted");
  let qframe = Wire.encode_request (Wire.Query (Vquery.line ~x:1.0)) in
  let qpayload =
    String.sub qframe Wire.header_bytes (String.length qframe - Wire.header_bytes)
  in
  (match Wire.decode_request (String.sub qpayload 0 (String.length qpayload - 3)) with
  | Result.Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "truncated body accepted");
  match Wire.decode_request (qpayload ^ "x") with
  | Result.Error (Wire.Malformed _) -> ()
  | _ -> Alcotest.fail "trailing bytes accepted"

(* ---------------- the server's framer ---------------- *)

let random_queries ?(n = 64) seed =
  let rng = Rng.create seed in
  Array.init n (fun _ ->
      let x = Rng.float rng 120.0 -. 10.0 in
      match Rng.int rng 4 with
      | 0 -> Vquery.line ~x
      | 1 -> Vquery.ray_up ~x ~ylo:(Rng.float rng 100.0)
      | 2 -> Vquery.ray_down ~x ~yhi:(Rng.float rng 100.0)
      | _ ->
          let y = Rng.float rng 100.0 in
          Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 40.0))

(* Feed [stream] to a fresh inbox, [chunks] bytes a read (the list
   cycles), taking every complete frame after each read as the accept
   loop does. The server closes the stream at the first damaged frame,
   so this stops there too, after checking that the inbox keeps
   answering the damage. *)
let frame_stream stream chunks =
  let ib = Wire.Inbox.create () in
  let out = ref [] and sent = ref 0 and damaged = ref false in
  let rec take () =
    match Wire.Inbox.next ib with
    | Wire.Inbox.Await -> ()
    | Wire.Inbox.Damaged e ->
        out := Result.Error e :: !out;
        damaged := true
    | Wire.Inbox.Request r ->
        out := Result.Ok r :: !out;
        take ()
  in
  let pending = ref chunks in
  while (not !damaged) && !sent < String.length stream do
    let chunk =
      match !pending with
      | c :: rest ->
          pending := rest;
          c
      | [] ->
          pending := List.tl chunks;
          List.hd chunks
    in
    let n =
      Wire.Inbox.fill ib (fun buf ~pos ~len ->
          let n = min len (min chunk (String.length stream - !sent)) in
          Bytes.blit_string stream !sent buf pos n;
          n)
    in
    if n = 0 then Alcotest.fail "the inbox had no room for the frame it awaits";
    sent := !sent + n;
    take ()
  done;
  if !damaged then
    (match Wire.Inbox.next ib with
    | Wire.Inbox.Damaged _ -> ()
    | _ -> Alcotest.fail "the inbox moved past a damaged frame");
  List.rev !out

(* Damage frame [i] of [frames]: flip a payload byte (a CRC mismatch)
   or claim an oversized length. *)
let damage frames i oversize =
  List.mapi
    (fun j f ->
      if j <> i then f
      else
        let b = Bytes.of_string f in
        if oversize then Bytes.set_int32_le b 0 (Int32.of_int (Wire.max_frame + 1))
        else
          Bytes.set b Wire.header_bytes
            (Char.chr (Char.code (Bytes.get b Wire.header_bytes) lxor 0x5a));
        Bytes.to_string b)
    frames

let gen_chunks =
  QCheck.Gen.(
    list_size (int_range 1 6)
      (oneof [ int_range 1 16; int_range 1 4_096; int_range 1 (70 * 1024) ]))

let prop_framer_chunking =
  QCheck.Test.make ~name:"the framer decodes any chunking of a frame stream" ~count:60
    QCheck.(
      make
        Gen.(
          tup4
            (list_size (int_range 1 8) gen_request)
            (tup2 (int_bound 8) (int_bound 1_000))
            gen_chunks
            (opt (tup2 (int_bound 9) bool))))
    (fun (reqs, (at, seed), chunks, damaged) ->
      (* one batch whose frame is larger than the 64 KiB receive
         buffer: 24 bytes a query, so about 72 KB *)
      let big = batch (random_queries ~n:3_000 seed) in
      let reqs =
        let at = min at (List.length reqs) in
        List.filteri (fun i _ -> i < at) reqs @ (big :: List.filteri (fun i _ -> i >= at) reqs)
      in
      let frames = List.map Wire.encode_request reqs in
      (* whole-frame decoding, the reference *)
      let whole =
        List.map
          (fun f ->
            match payload_of_frame f with
            | Result.Ok p -> Result.Ok (Wire.decode_request p)
            | Result.Error e -> Result.Error e)
          frames
      in
      match damaged with
      | None -> frame_stream (String.concat "" frames) chunks = whole
      | Some (i, oversize) ->
          let i = i mod List.length frames in
          let got = frame_stream (String.concat "" (damage frames i oversize)) chunks in
          let error =
            if oversize then Wire.Oversized (Wire.max_frame + 1) else Wire.Crc_mismatch
          in
          got = List.filteri (fun j _ -> j < i) whole @ [ Result.Error error ])

(* A header may claim any length up to [max_frame]; the receive buffer
   grows only with the bytes that arrive, so a peer cannot make the
   server hold memory it did not send. *)
let test_inbox_grows_with_bytes () =
  let ib = Wire.Inbox.create () in
  let hdr = header Wire.max_frame 0 in
  let fed = ref 0 in
  while !fed < 200_000 do
    let n =
      Wire.Inbox.fill ib (fun buf ~pos ~len ->
          if pos + len > (2 * !fed) + 65536 then
            Alcotest.failf "%d bytes of room offered after %d fed" (pos + len) !fed;
          if len = 0 then Alcotest.fail "no room for the frame the inbox awaits";
          Bytes.set buf pos (if !fed < Wire.header_bytes then hdr.[!fed] else 'x');
          1)
    in
    fed := !fed + n;
    match Wire.Inbox.next ib with
    | Wire.Inbox.Await -> ()
    | _ -> Alcotest.fail "a partial frame was taken"
  done

(* ---------------- blocking transport ---------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_send_recv_roundtrip () =
  with_socketpair (fun a b ->
      let req = batch [| Vquery.line ~x:3.0; Vquery.ray_up ~x:1.0 ~ylo:0.0 |] in
      Wire.send b (Wire.encode_request req);
      match Wire.recv a with
      | Result.Ok payload ->
          Alcotest.(check bool) "frame survives the stream" true
            (Wire.decode_request payload = Result.Ok req)
      | Result.Error e -> Alcotest.failf "recv: %s" (Wire.protocol_error_to_string e))

let test_recv_truncated () =
  (* end-of-stream mid-header *)
  with_socketpair (fun a b ->
      ignore (Unix.write_substring b "\x04\x00" 0 2);
      Unix.close b;
      match Wire.recv a with
      | Result.Error Wire.Truncated -> ()
      | Result.Ok _ -> Alcotest.fail "truncated stream produced a frame"
      | Result.Error e ->
          Alcotest.failf "expected Truncated, got %s" (Wire.protocol_error_to_string e));
  (* end-of-stream mid-payload *)
  with_socketpair (fun a b ->
      let frame = Wire.encode_request (Wire.Query (Vquery.line ~x:2.0)) in
      ignore (Unix.write_substring b frame 0 (Wire.header_bytes + 4));
      Unix.close b;
      match Wire.recv a with
      | Result.Error Wire.Truncated -> ()
      | _ -> Alcotest.fail "mid-payload end-of-stream not Truncated")

let test_recv_timeout () =
  with_socketpair (fun a _b ->
      match Wire.recv ~timeout:0.05 a with
      | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) -> ()
      | Result.Ok _ -> Alcotest.fail "a frame out of silence"
      | Result.Error e ->
          Alcotest.failf "expected ETIMEDOUT, got %s" (Wire.protocol_error_to_string e))

(* ---------------- addresses ---------------- *)

let test_addr_of_string () =
  let ok s expect =
    match Server.addr_of_string s with
    | Result.Ok got ->
        Alcotest.(check string) s (Server.addr_to_string expect) (Server.addr_to_string got)
    | Result.Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  ok "127.0.0.1:4090" (Server.Tcp ("127.0.0.1", 4090));
  ok ":8080" (Server.Tcp ("127.0.0.1", 8080));
  ok "unix:/tmp/segdb.sock" (Server.Unix_path "/tmp/segdb.sock");
  ok "/tmp/segdb.sock" (Server.Unix_path "/tmp/segdb.sock");
  List.iter
    (fun s ->
      match Server.addr_of_string s with
      | Result.Ok a -> Alcotest.failf "%S parsed as %s" s (Server.addr_to_string a)
      | Result.Error _ -> ())
    [ "nonsense"; "host:notaport"; "host:70000" ]

(* ---------------- loopback serving ---------------- *)

let build_db ?(backend = `Solution2) ?(n = 400) ?(seed = 42) () =
  let segs = W.roads (Rng.create seed) ~n ~span:100.0 in
  Db.create ~backend ~block:8 ~pool_blocks:8 segs

let with_server ?domains ?queue_depth ?deadline_ms db f =
  let srv =
    Server.create ?domains ?queue_depth ?deadline_ms ~db (Server.Tcp ("127.0.0.1", 0))
  in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f (Server.bound_addr srv))

(* The acceptance criterion: a served batch is byte-identical to the
   in-process parallel engine's answer. *)
let test_loopback_parity () =
  let db = build_db () in
  with_server db (fun addr ->
      let c = Client.connect ~timeout_ms:30_000 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.ping c;
          let qs = random_queries 7 in
          let served = Client.batch c qs in
          let local =
            let pool = Exec.create ~workers:2 () in
            Fun.protect ~finally:(fun () -> Exec.shutdown pool) @@ fun () ->
            match Exec.run pool db (Exec.request qs) ~domains:2 with
            | Exec.Ok out, _ -> out
            | o, _ -> Alcotest.failf "in-process batch not answered: %a" Exec.pp_outcome o
          in
          Alcotest.(check bool) "batch complete" true served.Db.Degraded.complete;
          Alcotest.(check bool) "no faults" true (served.Db.Degraded.faults = []);
          Alcotest.(check bool) "served batch = Exec.run" true
            (served.Db.Degraded.value = local);
          let frame_of results =
            Wire.encode_response (Wire.Batch_ids { results; complete = true; faults = [] })
          in
          Alcotest.(check bool) "byte-identical encodings" true
            (frame_of served.Db.Degraded.value = frame_of local);
          (* singles against the serial oracle; a count is the length
             of a query answer *)
          Array.iter
            (fun q ->
              let one = Client.query c q in
              Alcotest.(check bool) "query complete" true one.Db.Degraded.complete;
              Alcotest.(check (list int)) "query ids"
                (List.sort_uniq compare (Db.query_ids db q))
                one.Db.Degraded.value;
              Alcotest.(check int) "count" (Db.count db q)
                (List.length one.Db.Degraded.value))
            (Array.sub qs 0 8)))

let raw_frame payload =
  let b = Buffer.create 16 in
  Codec.W.u32 b (String.length payload);
  Codec.W.u32 b (Segdb_io.Crc.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Pipelined frames trickling in a few bytes at a time, one of them
   larger than the server's receive buffer: every answer is the one a
   client's own exchange gets, and an unknown tag costs only its own
   frame. *)
let test_pipelined_trickle () =
  let db = build_db () in
  with_server ~domains:1 db (fun addr ->
      let qs = random_queries 11 and big = random_queries ~n:3_000 12 in
      let stream =
        String.concat ""
          [
            Wire.encode_request Wire.Ping;
            Wire.encode_request (Wire.Query qs.(0));
            Wire.encode_request (batch big);
            raw_frame "\x63";
            Wire.encode_request (Wire.Query qs.(1));
          ]
      in
      let fd = Server.dial addr in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      (* answers are read on another domain: the batch's may not fit
         the socket buffers while this one is still writing *)
      let reader =
        Domain.spawn (fun () ->
            List.init 5 (fun _ ->
                match Wire.recv ~timeout:30.0 fd with
                | Result.Ok p -> Wire.decode_response p
                | Result.Error e -> Result.Error e))
      in
      let rng = Rng.create 5 and sent = ref 0 in
      while !sent < String.length stream do
        let n = min (1 + Rng.int rng 12) (String.length stream - !sent) in
        sent := !sent + Unix.write_substring fd stream !sent n
      done;
      let answers =
        List.map
          (function
            | Result.Ok r -> r
            | Result.Error e -> Alcotest.failf "answer: %s" (Wire.protocol_error_to_string e))
          (Domain.join reader)
      in
      let c = Client.connect ~timeout_ms:30_000 addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.ping c;
      let ids (d : int list Db.Degraded.t) =
        Wire.Ids { ids = d.Db.Degraded.value; complete = d.complete; faults = d.faults }
      in
      let b = Client.batch c big in
      (* the accept loop answers a ping and a bad frame itself, so they
         may overtake the pool's answers, which keep their order *)
      let count p = List.length (List.filter p answers) in
      Alcotest.(check int) "one pong" 1 (count (( = ) Wire.Pong));
      Alcotest.(check int) "the unknown tag answered bad_request" 1
        (count (function Wire.Error (Wire.Bad_request, _) -> true | _ -> false));
      Alcotest.(check bool) "the pool's answers match the client's" true
        (List.filter (function Wire.Ids _ | Wire.Batch_ids _ -> true | _ -> false) answers
        = [
            ids (Client.query c qs.(0));
            Wire.Batch_ids
              { results = b.Db.Degraded.value; complete = b.complete; faults = b.faults };
            ids (Client.query c qs.(1));
          ]))

(* A damaged frame (a CRC mismatch, or a length past [max_frame]) is
   answered [Corrupt_frame] and the server closes the stream: the
   ping behind it is never answered. *)
let test_damaged_frame_closes () =
  let db = build_db ~n:50 () in
  with_server ~domains:1 db (fun addr ->
      List.iter
        (fun oversize ->
          let bad = Bytes.of_string (Wire.encode_request Wire.Ping) in
          if oversize then Bytes.set_int32_le bad 0 (Int32.of_int (Wire.max_frame + 1))
          else Bytes.set bad Wire.header_bytes '\x7f';
          let ping = Wire.encode_request Wire.Ping in
          let stream = ping ^ Bytes.to_string bad ^ ping in
          let fd = Server.dial addr in
          Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
          ignore (Unix.write_substring fd stream 0 (String.length stream));
          let next () =
            match Wire.recv ~timeout:10.0 fd with
            | Result.Ok p -> Wire.decode_response p
            | Result.Error e -> Result.Error e
          in
          Alcotest.(check bool) "the ping before it is answered" true
            (next () = Result.Ok Wire.Pong);
          (match next () with
          | Result.Ok (Wire.Error (Wire.Corrupt_frame, _)) -> ()
          | _ -> Alcotest.fail "a damaged frame not answered corrupt_frame");
          Alcotest.(check bool) "nothing after it: the stream ends" true
            (next () = Result.Error Wire.Truncated))
        [ false; true ])

let test_stats_over_wire () =
  let db = build_db ~n:100 () in
  with_server db (fun addr ->
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let prom = Client.stats c `Prometheus in
          Alcotest.(check bool) "prometheus prefixed" true (contains prom "segdb_");
          Alcotest.(check bool) "addr label attached" true
            (contains prom "addr=\"127.0.0.1:");
          let js = Client.stats c `Json in
          Alcotest.(check bool) "json object" true
            (String.length js > 0 && js.[0] = '{')))

let test_shutdown_frame () =
  let db = build_db ~n:50 () in
  let srv = Server.create ~domains:1 ~db (Server.Tcp ("127.0.0.1", 0)) in
  Server.start srv;
  let addr = Server.bound_addr srv in
  let c = Client.connect addr in
  Client.ping c;
  Client.shutdown c;
  Client.close c;
  Server.wait srv;
  match Client.connect ~retries:0 ~backoff_ms:1 addr with
  | exception Client.Error _ -> ()
  | c2 ->
      Client.close c2;
      Alcotest.fail "server still accepting after drain"

let test_unix_socket () =
  let path = Filename.temp_file "segdb_net" ".sock" in
  Sys.remove path;
  let db = build_db ~n:50 () in
  let srv = Server.create ~domains:1 ~db (Server.Unix_path path) in
  Server.start srv;
  let c = Client.connect (Server.Unix_path path) in
  Client.ping c;
  let q = Vquery.line ~x:50.0 in
  let got = Client.query c q in
  Alcotest.(check (list int)) "ids over the unix socket"
    (List.sort_uniq compare (Db.query_ids db q))
    got.Db.Degraded.value;
  Client.shutdown c;
  Client.close c;
  Server.wait srv;
  Alcotest.(check bool) "socket path unlinked on drain" false (Sys.file_exists path)

(* ---------------- faults, backpressure, deadlines ---------------- *)

let metric name = Metrics.value (Metrics.counter Metrics.default name)

let with_obs f =
  Metrics.reset Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Obs.Control.disable ();
      Failpoint.disarm ())
    (fun () ->
      Obs.Control.enable ();
      f ())

(* Two servers in one process share the metrics registry, yet each
   scrape reports the node that answers it, and each signal has one
   name in the frame. *)
let test_two_servers_own_gauges () =
  with_obs @@ fun () ->
  let serve epoch domains =
    let db = build_db ~n:100 () in
    let srv = Server.create ~epoch ~domains ~db (Server.Tcp ("127.0.0.1", 0)) in
    Server.start srv;
    (srv, epoch, domains)
  in
  let nodes = [ serve 3 1; serve 7 2 ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (srv, _, _) ->
          Server.stop srv;
          Server.wait srv)
        nodes)
  @@ fun () ->
  List.iter
    (fun (srv, epoch, workers) ->
      let c = Client.connect (Server.bound_addr srv) in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      for i = 0 to 4 do
        ignore (Client.query c (Vquery.line ~x:(float_of_int (i * 20))))
      done;
      let js = Client.stats c `Json in
      let check has key = Alcotest.(check bool) key has (contains js key) in
      (* gauges render sorted by name, so another one follows each *)
      check true (Printf.sprintf "\"repl.epoch\": %d," epoch);
      check true (Printf.sprintf "\"exec.pool_workers\": %d," workers);
      List.iter (check true)
        [ "\"exec.queue_wait.ns\""; "\"exec.service.ns\""; "\"net.request.ns\"";
          "\"net.decode.ns\""; "\"net.write.ns\""; "\"exec.queue_len\"";
          "\"exec.pool_busy\""; "\"runtime.heap_words\""; "\"repl.last_lsn\"" ];
      List.iter (check false)
        [ "span.exec.queue_wait."; "span.server.request."; "exec.request.ns";
          "exec.queue_depth" ])
    nodes

(* The acceptance criterion: a torn response frame kills the connection
   under the client, which retries to success; [io.retries] and
   [net.requests] reflect the replay. *)
let test_torn_write_retry () =
  with_obs @@ fun () ->
  let db = build_db ~n:200 () in
  with_server ~domains:1 db (fun addr ->
      let c = Client.connect ~retries:6 ~backoff_ms:1 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let q = Vquery.line ~x:50.0 in
          let expect = List.sort_uniq compare (Db.query_ids db q) in
          let requests0 = metric "net.requests" in
          (* hit 1 is the client's own send; hit 2 tears the server's
             response mid-frame and resets the connection *)
          Failpoint.arm ~seed:11 [ ("net.write", Failpoint.plan ~at:2 Failpoint.Torn) ];
          let got = Client.query c q in
          Failpoint.disarm ();
          Alcotest.(check (list int)) "healed answer" expect got.Db.Degraded.value;
          Alcotest.(check bool) "client retried" true (metric "net.client.retries" >= 1);
          Alcotest.(check bool) "io.retries reflects it" true (metric "io.retries" >= 1);
          Alcotest.(check bool) "server saw the request again" true
            (metric "net.requests" - requests0 >= 2)))

let test_overload_backpressure () =
  let db = build_db ~n:50 () in
  with_server ~domains:1 ~queue_depth:0 db (fun addr ->
      let c = Client.connect ~retries:0 ~backoff_ms:1 addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* ping is answered inline by the accept loop, never queued *)
          Client.ping c;
          match Client.query c (Vquery.line ~x:1.0) with
          | exception Client.Error m ->
              Alcotest.(check bool) "names the overload" true (contains m "overload")
          | _ -> Alcotest.fail "zero-depth queue accepted work"))

let test_deadline () =
  let db = build_db ~backend:`Naive ~n:300_000 () in
  with_server ~domains:1 ~deadline_ms:5 db (fun addr ->
      let port = match addr with Server.Tcp (_, p) -> p | _ -> Alcotest.fail "tcp" in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
          (* a slow naive batch occupies the lone worker — its first
             query alone (immune to the deadline by design) runs for
             tens of ms — so the query behind it sits queued past its
             own 5ms budget and is refused without being executed. The
             batch itself must reach the worker within its budget: 5ms
             leaves room for a loaded machine's scheduling delays *)
          let slow =
            batch (Array.init 20 (fun i -> Vquery.line ~x:(float_of_int i /. 3.0)))
          in
          Wire.send fd (Wire.encode_request slow);
          Wire.send fd (Wire.encode_request (Wire.Query (Vquery.line ~x:1.0)));
          let read_resp () =
            match Wire.recv ~timeout:60.0 fd with
            | Result.Ok payload -> (
                match Wire.decode_response payload with
                | Result.Ok r -> r
                | Result.Error e ->
                    Alcotest.failf "decode: %s" (Wire.protocol_error_to_string e))
            | Result.Error e ->
                Alcotest.failf "recv: %s" (Wire.protocol_error_to_string e)
          in
          (match read_resp () with
          | Wire.Batch_ids _ -> ()
          | r -> Alcotest.failf "expected the batch first, got %s" (resp_name r));
          match read_resp () with
          | Wire.Error (Wire.Deadline, _) -> ()
          | r -> Alcotest.failf "expected a deadline error, got %s" (resp_name r)))

(* ---------------- the CLI reads queries from stdin ---------------- *)

let cli_exe =
  List.find_opt Sys.file_exists
    [
      Filename.concat (Filename.dirname Sys.executable_name) "../bin/segdb_cli.exe";
      "../bin/segdb_cli.exe";
    ]

let run_lines cmd =
  let ic = Unix.open_process_in cmd in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> Alcotest.failf "command failed: %s" cmd

(* [f exe seg] with the CLI and a three-segment file, both quoted *)
let with_cli f =
  match cli_exe with
  | None -> Alcotest.skip ()
  | Some exe ->
      let seg = Filename.temp_file "segdb_net" ".seg" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove seg with Sys_error _ -> ())
        (fun () ->
          let oc = open_out seg in
          output_string oc "1 0 0 10 10\n2 5 0 5 10\n3 20 0 30 10\n";
          close_out oc;
          f (Filename.quote exe) (Filename.quote seg))

let exit_code cmd = Sys.command (cmd ^ " > /dev/null 2>&1")

let test_cli_batch_stdin () =
  with_cli @@ fun exe seg ->
  let lines =
    run_lines (Printf.sprintf "printf '5\\n25\\n' | %s batch %s -q - --domains 1" exe seg)
  in
  let hits =
    List.filter (fun l -> contains l "-> 2 segments" || contains l "-> 1 segments") lines
  in
  Alcotest.(check int) "two answered queries" 2 (List.length hits)

(* a bad flag or a dead server ends in a diagnostic and an exit code,
   not an uncaught exception (exit 125) *)
let test_cli_domains_zero () =
  with_cli @@ fun exe seg ->
  Alcotest.(check int) "cmdliner's usage error" 124
    (exit_code (Printf.sprintf "printf '5\\n' | %s batch %s -q - --domains 0" exe seg))

let test_cli_top_dead_socket () =
  with_cli @@ fun exe seg ->
  (* nothing listens at [seg] *)
  Alcotest.(check int) "client error" 1
    (exit_code (Printf.sprintf "%s top --connect unix:%s --iterations 1" exe seg))

(* ---------------- HTTP monitoring endpoints ---------------- *)

let http_request addr raw =
  let fd = Server.dial addr in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length raw in
      let rec push off =
        if off < n then push (off + Unix.write_substring fd raw off (n - off))
      in
      push 0;
      let buf = Buffer.create 512 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
      in
      drain ();
      Buffer.contents buf)

let http_get addr path = http_request addr (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path)

let http_status resp =
  match String.split_on_char ' ' resp with
  | _ :: code :: _ -> ( try int_of_string code with Failure _ -> -1)
  | _ -> -1

let with_metrics_server ?health_stall_s ?replica_of db f =
  let srv =
    Server.create ?health_stall_s ?replica_of ~domains:1 ~db (Server.Tcp ("127.0.0.1", 0))
  in
  let maddr = Server.serve_metrics srv (Server.Tcp ("127.0.0.1", 0)) in
  Server.start srv;
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Server.wait srv)
    (fun () -> f (Server.bound_addr srv) maddr)

let test_http_metrics_scrape () =
  with_obs @@ fun () ->
  let db = build_db ~n:100 () in
  with_metrics_server db (fun addr maddr ->
      (* move the counters so the exposition has bodies, not just types *)
      let c = Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> ignore (Client.query c (Vquery.line ~x:50.0)));
      let resp = http_get maddr "/metrics" in
      Alcotest.(check int) "scrape answers 200" 200 (http_status resp);
      Alcotest.(check bool) "prometheus exposition" true (contains resp "# TYPE segdb_");
      Alcotest.(check bool) "request counter exported" true
        (contains resp "segdb_net_requests");
      (* the scrape itself refreshes the runtime, replication and pool
         gauges *)
      Alcotest.(check bool) "runtime gauges" true (contains resp "segdb_runtime_heap_words");
      Alcotest.(check bool) "replication gauges" true (contains resp "segdb_repl_epoch");
      Alcotest.(check bool) "pool gauges" true (contains resp "segdb_exec_pool_workers");
      let hz = http_get maddr "/healthz" in
      Alcotest.(check int) "healthz 200" 200 (http_status hz);
      Alcotest.(check bool) "primary role" true (contains hz "\"role\":\"primary\"");
      Alcotest.(check bool) "epoch reported" true (contains hz "\"epoch\"");
      Alcotest.(check int) "unknown path is 404" 404 (http_status (http_get maddr "/nope")))

let test_http_healthz_stall () =
  let db = build_db ~n:50 () in
  (* a replica whose upstream is already dead never sees stream
     progress, so past the stall budget /healthz flips to 503 *)
  let dead = Server.Tcp ("127.0.0.1", 1) in
  with_metrics_server ~health_stall_s:0.05 ~replica_of:dead db (fun _addr maddr ->
      Unix.sleepf 0.3;
      let hz = http_get maddr "/healthz" in
      Alcotest.(check int) "stalled replica answers 503" 503 (http_status hz);
      Alcotest.(check bool) "names the stall" true (contains hz "\"status\":\"stalled\"");
      Alcotest.(check bool) "replica role" true (contains hz "\"role\":\"replica\""))

let test_http_malformed_request () =
  let db = build_db ~n:50 () in
  with_metrics_server db (fun _addr maddr ->
      let bad = http_request maddr "BOGUS\r\n\r\n" in
      Alcotest.(check int) "garbage request answers 400" 400 (http_status bad);
      let post = http_request maddr "POST /metrics HTTP/1.0\r\n\r\n" in
      Alcotest.(check int) "non-GET answers 405" 405 (http_status post);
      (* neither killed the accept loop *)
      Alcotest.(check int) "still serving afterwards" 200
        (http_status (http_get maddr "/healthz")))

let test_stats_obs_off_note () =
  let was = Obs.Control.enabled () in
  Obs.Control.disable ();
  Fun.protect
    ~finally:(fun () -> if was then Obs.Control.enable ())
    (fun () ->
      let db = build_db ~n:50 () in
      with_server ~domains:1 db (fun addr ->
          let c = Client.connect addr in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              let txt = Client.stats c `Text in
              Alcotest.(check bool) "wire stats carry the disabled note" true
                (contains txt "observability disabled"))))

let suite =
  ( "net",
    [
      qtest prop_request_roundtrip;
      qtest prop_response_roundtrip;
      qtest prop_decode_total;
      qtest prop_framer_chunking;
      Alcotest.test_case "the receive buffer grows with the bytes, not the header" `Quick
        test_inbox_grows_with_bytes;
      Alcotest.test_case "negative frames decode to typed errors" `Quick
        test_negative_frames;
      Alcotest.test_case "send/recv over a socketpair" `Quick test_send_recv_roundtrip;
      Alcotest.test_case "recv: truncated streams" `Quick test_recv_truncated;
      Alcotest.test_case "recv: timeout" `Quick test_recv_timeout;
      Alcotest.test_case "addr_of_string" `Quick test_addr_of_string;
      Alcotest.test_case "loopback parity with the in-process engine" `Quick
        test_loopback_parity;
      Alcotest.test_case "pipelined frames trickle in, each answered" `Quick
        test_pipelined_trickle;
      Alcotest.test_case "a damaged frame is answered, then the stream ends" `Quick
        test_damaged_frame_closes;
      Alcotest.test_case "stats frame over the wire" `Quick test_stats_over_wire;
      Alcotest.test_case "two servers, each scrape reports its own node" `Quick
        test_two_servers_own_gauges;
      Alcotest.test_case "shutdown frame drains the server" `Quick test_shutdown_frame;
      Alcotest.test_case "unix-domain socket serving" `Quick test_unix_socket;
      Alcotest.test_case "torn response heals via client retry" `Quick
        test_torn_write_retry;
      Alcotest.test_case "zero-depth queue answers overloaded" `Quick
        test_overload_backpressure;
      Alcotest.test_case "queued past the deadline" `Quick test_deadline;
      Alcotest.test_case "cli batch reads queries from stdin" `Quick test_cli_batch_stdin;
      Alcotest.test_case "cli batch rejects --domains 0" `Quick test_cli_domains_zero;
      Alcotest.test_case "cli top against a dead socket exits 1" `Quick
        test_cli_top_dead_socket;
      Alcotest.test_case "http: /metrics scrape + /healthz" `Quick test_http_metrics_scrape;
      Alcotest.test_case "http: stalled replica healthz 503" `Quick test_http_healthz_stall;
      Alcotest.test_case "http: malformed request answers 400" `Quick
        test_http_malformed_request;
      Alcotest.test_case "stats with obs off carries a note" `Quick test_stats_obs_off_note;
    ] )
