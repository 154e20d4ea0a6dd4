type reason = Deadline | Explicit

exception Cancelled of reason

type t = {
  flag : bool Atomic.t;
  deadline_ns : int; (* absolute, 0 = none *)
  mutable deadline_on : bool;
  mutable polls : int; (* domain-local by construction: handles are per-worker *)
}

let create ?(deadline_ns = 0) ?flag () =
  let flag = match flag with Some f -> f | None -> Atomic.make false in
  { flag; deadline_ns = max 0 deadline_ns; deadline_on = true; polls = 0 }

let cancelled t = Atomic.get t.flag

let expired t = t.deadline_ns > 0 && Segdb_obs.Trace.now_ns () > t.deadline_ns

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
  if Atomic.get t.flag then raise (Cancelled Explicit);
  if t.deadline_ns > 0 && t.deadline_on then begin
    t.polls <- t.polls + 1;
    if
      t.polls land (poll_stride - 1) = 0
      && Segdb_obs.Trace.now_ns () > t.deadline_ns
    then raise (Cancelled Deadline)
  end

let poll () =
  if Atomic.get installed > 0 then
    match !(Domain.DLS.get current) with None -> () | Some t -> check t
