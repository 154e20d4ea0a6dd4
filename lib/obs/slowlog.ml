(* The slow-query log: a bounded ring of structured records for
   requests whose wall time cleared a threshold.

   Disabled by default (threshold < 0), and the disabled check is one
   [Atomic.get] ([enabled]). A threshold of 0 records every request —
   useful for smoke tests and short captures. Recording serializes on
   one mutex; by construction only slow requests get here, so the lock
   is uncontended exactly when it matters. *)

type entry = {
  request_id : int;
  query : string;  (* rendering of the (first) query rect *)
  queries : int;  (* batch size *)
  outcome : string;
  wall_ns : int;
  queue_wait_ns : int;
  blocks : int;
  cache_hits : int;
  cache_misses : int;
  at_ns : int;  (* completion wall-clock stamp *)
}

(* -1 = disabled. Stored in ns so the hot-path compare needs no unit
   conversion. *)
let threshold_ns = Atomic.make (-1)

let enabled () = Atomic.get threshold_ns >= 0

let set_threshold_ms ms =
  Atomic.set threshold_ns (if ms < 0 then -1 else ms * 1_000_000)

let threshold_ms () =
  let t = Atomic.get threshold_ns in
  if t < 0 then -1 else t / 1_000_000

module Ring = Segdb_util.Ring

let mu = Mutex.create ()
let ring : entry Ring.t = Ring.create 128

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let set_capacity n =
  if n < 1 then invalid_arg "Slowlog.set_capacity: capacity must be positive";
  locked (fun () ->
      Ring.clear ring;
      Ring.resize ring n)

let clear () = locked (fun () -> Ring.clear ring)

let record e = locked (fun () -> Ring.push ring e)

let note ~wall_ns mk =
  let t = Atomic.get threshold_ns in
  if t >= 0 && wall_ns >= t then record (mk ())

let entries () = locked (fun () -> Ring.to_list ring)

(* ---------------- rendering ---------------- *)

let to_text es =
  if es = [] then "(slow-query log empty)\n"
  else begin
    let module Table = Segdb_util.Table in
    let t =
      Table.create ~title:"slow queries"
        ~columns:
          [ "req"; "query"; "n"; "outcome"; "wall ms"; "wait ms"; "blocks"; "hit"; "miss" ]
    in
    List.iter
      (fun e ->
        Table.add_row t
          [
            Printf.sprintf "%x" e.request_id;
            e.query;
            Table.cell_int e.queries;
            e.outcome;
            Table.cell_float ~decimals:2 (float_of_int e.wall_ns /. 1e6);
            Table.cell_float ~decimals:2 (float_of_int e.queue_wait_ns /. 1e6);
            Table.cell_int e.blocks;
            Table.cell_int e.cache_hits;
            Table.cell_int e.cache_misses;
          ])
      es;
    Table.render t
  end

let to_json es =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[";
  List.iteri
    (fun idx e ->
      if idx > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "\n  {\"request_id\": %d, \"query\": \"%s\", \"queries\": %d, \
            \"outcome\": \"%s\", \"wall_ns\": %d, \"queue_wait_ns\": %d, \
            \"blocks\": %d, \"cache_hits\": %d, \"cache_misses\": %d, \
            \"at_ns\": %d}"
           e.request_id (Export.json_escape e.query) e.queries (Export.json_escape e.outcome)
           e.wall_ns e.queue_wait_ns e.blocks e.cache_hits e.cache_misses e.at_ns))
    es;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

let configure_from_env () =
  match Sys.getenv_opt "SEGDB_SLOW_MS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some ms -> set_threshold_ms ms
      | None -> ())
  | None -> ()
