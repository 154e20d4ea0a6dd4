exception Expired

type t = {
  deadline_ns : int; (* absolute on [Trace.now_ns], 0 = none *)
  mutable deadline_on : bool;
  mutable polls : int; (* domain-local by construction: handles are per-worker *)
}

let create ~deadline_ns =
  { deadline_ns = max 0 deadline_ns; deadline_on = true; polls = 0 }

let expired deadline_ns = deadline_ns > 0 && Segdb_obs.Trace.now_ns () > deadline_ns

let set_deadline_enabled t on = t.deadline_on <- on

let poll_stride = 16

(* How many handles are installed process-wide: the guard that keeps a
   poll on the unused engine down to one atomic load — the same
   discipline as [Failpoint.armed]. *)
let installed = Atomic.make 0

(* Domain-local, like [Read_context.current]: installing a handle on
   one worker never affects queries running on another. *)
let current : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let install t f =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some t;
  Atomic.incr installed;
  Fun.protect
    ~finally:(fun () ->
      slot := saved;
      Atomic.decr installed)
    f

let check t =
  if t.deadline_ns > 0 && t.deadline_on then begin
    t.polls <- t.polls + 1;
    if t.polls land (poll_stride - 1) = 0 && expired t.deadline_ns then raise Expired
  end

let poll () =
  if Atomic.get installed > 0 then
    match !(Domain.DLS.get current) with None -> () | Some t -> check t
