module Failpoint = Segdb_io.Failpoint
module Log = Segdb_obs.Log
module Trace = Segdb_obs.Trace

type response = { status : int; content_type : string; body : string }

(* One in-flight request: bytes received so far, and when it started —
   a peer that never finishes its headers is reaped, not waited on. *)
type hconn = { fd : Unix.file_descr; mutable buf : string; started_ns : int }

type t = {
  lfd : Unix.file_descr;
  bound_ : Unix.sockaddr;
  handler : string -> response;
  mutable conns : hconn list;
}

let max_request_bytes = 8192
let header_deadline_ns = 5_000_000_000

let create ~handler sa =
  let lfd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     (match sa with
     | Unix.ADDR_INET _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true
     | Unix.ADDR_UNIX _ -> ());
     Unix.bind lfd sa;
     Unix.listen lfd 16
   with e ->
     Unix.close lfd;
     raise e);
  { lfd; bound_ = Unix.getsockname lfd; handler; conns = [] }

let bound t = t.bound_
let fds t = t.lfd :: List.map (fun c -> c.fd) t.conns
let owns t fd = fd = t.lfd || List.exists (fun c -> c.fd = fd) t.conns

let close_conn t c =
  (try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ());
  t.conns <- List.filter (fun c' -> c'.fd <> c.fd) t.conns

let reason_of = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* Through the net.write failpoint site: the fault matrix covers the
   exporter path too. A dead peer is its own problem — we were about
   to close anyway. *)
let send_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (reason_of status) content_type (String.length body)
  in
  let frame = Bytes.of_string (head ^ body) in
  try Failpoint.Io.send_all fd frame ~pos:0 ~len:(Bytes.length frame)
  with Unix.Unix_error (_, _, _) -> ()

let error_response status msg =
  { status; content_type = "application/json"; body = Printf.sprintf "{\"error\":%S}\n" msg }

let contains_sub hay sub =
  let nh = String.length hay and ns = String.length sub in
  let rec go i = i + ns <= nh && (String.sub hay i ns = sub || go (i + 1)) in
  go 0

(* headers end at the first blank line (CRLF or bare LF) *)
let headers_complete buf = contains_sub buf "\r\n\r\n" || contains_sub buf "\n\n"

(* "GET /path?query HTTP/1.x" -> Ok "/path"; anything else is typed so
   the caller can pick the right 4xx *)
let parse_request_line buf =
  let line =
    match String.index_opt buf '\n' with
    | Some i -> String.sub buf 0 i
    | None -> buf
  in
  let line =
    if line <> "" && line.[String.length line - 1] = '\r' then
      String.sub line 0 (String.length line - 1)
    else line
  in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ meth; target; version ]
    when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      if meth <> "GET" then Error (`Method meth)
      else
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        if path = "" || path.[0] <> '/' then Error (`Malformed line) else Ok path
  | _ -> Error (`Malformed line)

let answer t c =
  let resp =
    match parse_request_line c.buf with
    | Ok path -> (
        match t.handler path with
        | r -> r
        | exception e ->
            Log.warn ~comp:"http" "handler raised" (fun () ->
                [ Log.s "path" path; Log.s "error" (Printexc.to_string e) ]);
            error_response 500 "internal error")
    | Error (`Method m) -> error_response 405 (Printf.sprintf "method %s not allowed" m)
    | Error (`Malformed line) ->
        Log.warn ~comp:"http" "malformed request line" (fun () -> [ Log.s "line" line ]);
        error_response 400 "malformed request line"
  in
  send_response c.fd resp;
  close_conn t c

let read_conn t c =
  let buf = Bytes.create 4096 in
  match Failpoint.Io.recv c.fd buf ~pos:0 ~len:(Bytes.length buf) with
  | 0 ->
      (* peer closed before completing its request; nothing to answer *)
      close_conn t c
  | n ->
      c.buf <- c.buf ^ Bytes.sub_string buf 0 n;
      if String.length c.buf > max_request_bytes then begin
        send_response c.fd (error_response 400 "request too large");
        close_conn t c
      end
      else if headers_complete c.buf then answer t c
  | exception Unix.Unix_error (_, _, _) -> close_conn t c

let accept t =
  match Unix.accept t.lfd with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd, _ -> t.conns <- { fd; buf = ""; started_ns = Trace.now_ns () } :: t.conns

let handle t fd =
  if fd = t.lfd then accept t
  else
    match List.find_opt (fun c -> c.fd = fd) t.conns with
    | Some c -> read_conn t c
    | None -> ()

let reap t =
  let now = Trace.now_ns () in
  let stale = List.filter (fun c -> now - c.started_ns > header_deadline_ns) t.conns in
  List.iter (close_conn t) stale

let close t =
  (try Unix.close t.lfd with Unix.Unix_error (_, _, _) -> ());
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()) t.conns;
  t.conns <- []
