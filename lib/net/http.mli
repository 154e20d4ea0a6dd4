(** A minimal HTTP/1.0 exporter, multiplexed into an existing select
    loop.

    Serves the monitoring endpoints ([/metrics], [/healthz])
    off the same domain that runs the wire-protocol accept loop: the
    owner adds {!fds} to its [select] read set and hands ready
    descriptors to {!handle} — no threading model of its own, no
    framework. Only [GET] is understood; every response closes the
    connection (HTTP/1.0 semantics), so there is no keep-alive state to
    manage.

    Hardening: reads and writes go through the [net.read]/[net.write]
    failpoint sites ({!Segdb_io.Failpoint.Io}), a malformed request
    line is answered [400] without disturbing the loop, a request
    larger than 8 KiB is answered [400], and a connection that never
    completes its headers is reaped after a few seconds. *)

type t

type response = { status : int; content_type : string; body : string }

val create : handler:(string -> response) -> Unix.sockaddr -> t
(** Bind + listen immediately. [handler] receives the decoded request
    path (query string stripped) and runs on whichever domain calls
    {!handle} — the owner's select loop. Raises [Unix.Unix_error] if
    the address cannot be bound. *)

val bound : t -> Unix.sockaddr
(** The actual listening address (kernel-chosen port for TCP port 0). *)

val fds : t -> Unix.file_descr list
(** The listen socket plus every half-read connection — what the owner
    adds to its [select] read set. *)

val owns : t -> Unix.file_descr -> bool

val handle : t -> Unix.file_descr -> unit
(** Service one ready descriptor: accept on the listen socket, read /
    answer / close on a connection. Never raises on peer misbehaviour. *)

val reap : t -> unit
(** Close connections that have sat incomplete past the header
    deadline; call once per loop tick. *)

val close : t -> unit
(** Close the listener and every pending connection. *)
