(* Structured logging: leveled key/value events with nanosecond
   timestamps and domain tags.

   Off by default, and the off path is one [Atomic.get]: [log] (and
   the level helpers) take the field list as a thunk, so a guarded
   call site builds nothing when the level is below threshold — and a
   hot path that would even allocate the thunk's closure can guard on
   [would_log] first.

   Sinks: stderr (on by default once logging is enabled), an optional
   append-mode file, and an optional bounded in-memory ring (for
   tests and post-mortem dumps). Emission serializes on one mutex —
   logging is for rare events (accepts, drains, overloads, recovery),
   not per-block probes; those are metrics. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

(* 4 = above Error = nothing logs. *)
let off_threshold = 4

let threshold = Atomic.make off_threshold

let set_level = function
  | None -> Atomic.set threshold off_threshold
  | Some l -> Atomic.set threshold (severity l)


let would_log l = severity l >= Atomic.get threshold

type value = S of string | I of int | F of float | B of bool

type field = string * value

let s k v = (k, S v)
let i k v = (k, I v)
let f k v = (k, F v)
let b k v = (k, B v)

type event = {
  ts_ns : int;
  lvl : level;
  dom : int;
  comp : string;
  msg : string;
  fields : field list;
}

(* ---------------- rendering (logfmt) ---------------- *)

let needs_quoting v =
  v = ""
  || String.exists
       (fun c -> c = ' ' || c = '"' || c = '=' || c = '\\' || Char.code c < 0x20)
       v

let quote buf v =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\x%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    v;
  Buffer.add_char buf '"'

let add_value buf = function
  | S v -> if needs_quoting v then quote buf v else Buffer.add_string buf v
  | I v -> Buffer.add_string buf (string_of_int v)
  | F v -> Buffer.add_string buf (Printf.sprintf "%.6g" v)
  | B v -> Buffer.add_string buf (string_of_bool v)

let render ev =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "ts=%d level=%s dom=%d comp=" ev.ts_ns (level_name ev.lvl) ev.dom);
  add_value buf (S ev.comp);
  Buffer.add_string buf " msg=";
  quote buf ev.msg;
  List.iter
    (fun (k, v) ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      add_value buf v)
    ev.fields;
  Buffer.contents buf

(* ---------------- sinks ---------------- *)

module Ring = Segdb_util.Ring

let mu = Mutex.create ()
let to_stderr = ref true
let file_chan : out_channel option ref = ref None
let ring : event Ring.t = Ring.create 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let set_stderr on = locked (fun () -> to_stderr := on)

let set_file path =
  locked (fun () ->
      (match !file_chan with Some ch -> close_out_noerr ch | None -> ());
      file_chan :=
        match path with
        | None -> None
        | Some p -> Some (open_out_gen [ Open_append; Open_creat ] 0o644 p))

let set_ring n =
  locked (fun () ->
      Ring.clear ring;
      Ring.resize ring (max 0 n))

let ring_events () = locked (fun () -> Ring.to_list ring)

let emit ev =
  locked (fun () ->
      Ring.push ring ev;
      if !to_stderr || !file_chan <> None then begin
        let line = render ev ^ "\n" in
        if !to_stderr then (output_string stderr line; flush stderr);
        match !file_chan with
        | Some ch -> output_string ch line; flush ch
        | None -> ()
      end)

(* ---------------- logging ---------------- *)

let log l ~comp msg fields =
  if severity l >= Atomic.get threshold then
    emit
      {
        ts_ns = Trace.now_ns ();
        lvl = l;
        dom = (Domain.self () :> int);
        comp;
        msg;
        fields = fields ();
      }

let debug ~comp msg fields = log Debug ~comp msg fields
let info ~comp msg fields = log Info ~comp msg fields
let warn ~comp msg fields = log Warn ~comp msg fields
let error ~comp msg fields = log Error ~comp msg fields

(* SEGDB_LOG=info turns logging on at that level; SEGDB_LOG_FILE
   redirects the line stream to a file (stderr stays on unless
   SEGDB_LOG_STDERR=0). Unset variables leave the current config. *)
let configure_from_env () =
  (match Sys.getenv_opt "SEGDB_LOG" with
  | Some v -> (
      match level_of_string v with
      | Some l -> set_level (Some l)
      | None -> if String.trim v = "off" then set_level None)
  | None -> ());
  (match Sys.getenv_opt "SEGDB_LOG_FILE" with
  | Some p when p <> "" -> set_file (Some p)
  | _ -> ());
  match Sys.getenv_opt "SEGDB_LOG_STDERR" with
  | Some ("0" | "false" | "no") -> set_stderr false
  | _ -> ()
