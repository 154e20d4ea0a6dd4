(* The single on/off switch for the whole observability subsystem.

   Every probe site in the I/O stack is guarded by [enabled ()]: one
   atomic load, no allocation, no call when the subsystem is off — the
   discipline that keeps the uninstrumented hot path at its PR 2 cost.
   The flag is atomic (not a plain ref) so that flipping it from one
   domain is visible to query workers on others without a data race. *)

let on = Atomic.make false

let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* SEGDB_OBS=0 is an operator veto: entry points that enable
   observability by default (serving, local stats) check [forced_off]
   first, so the environment wins over the built-in default. *)
let forced_off_ = Atomic.make false

let forced_off () = Atomic.get forced_off_

let configure_from_env () =
  match Sys.getenv_opt "SEGDB_OBS" with
  | Some ("0" | "false" | "off") ->
      Atomic.set forced_off_ true;
      disable ()
  | Some ("1" | "true" | "on") -> enable ()
  | Some _ | None -> ()
