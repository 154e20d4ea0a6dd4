(** The master switch of the observability subsystem.

    Probe sites throughout the I/O stack ({!Block_store}, the PSTs,
    interval trees, slab segment trees, the WAL, snapshots) check
    [enabled ()] before touching any metric or trace state. The
    default is off: a disabled probe costs one atomic load and nothing
    else, so query paths run at their uninstrumented speed. *)

val enabled : unit -> bool
(** One atomic load; [false] by default. *)

val enable : unit -> unit
val disable : unit -> unit

val configure_from_env : unit -> unit
(** Honour [SEGDB_OBS]: ["1"]/["true"]/["on"] enables, ["0"]/["false"]/
    ["off"] disables {e and} marks the subsystem force-disabled (see
    {!forced_off}); unset or unrecognized leaves the default. *)

val forced_off : unit -> bool
(** [true] after [SEGDB_OBS=0]: entry points that would enable
    observability by default (serving, local stats) must respect the
    operator's veto and stay off. *)
