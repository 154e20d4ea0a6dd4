(* The benchmark's one clock: CLOCK_MONOTONIC, in nanoseconds.

   Not [Segdb_obs.Trace.now_ns]: that is gettimeofday scaled to ns,
   which a double holds only to 256 ns at today's epoch, and which
   steps whenever the wall clock is set. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
