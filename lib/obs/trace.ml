(* Trace spans: phase-labelled intervals of the query pipeline,
   recorded into per-domain ring buffers and summarized into the
   default registry's per-phase histograms.

   A span is entered with the current block-read count of whatever
   Io_stats the caller is charged against and exited with the same
   counter read again, so each event carries both elapsed time and
   blocks touched during the phase. Nesting depth is tracked per domain
   (a DLS counter), which lets the dump indent a query's pipeline —
   first-level descent, then the PST / interval-tree / slab probes it
   dispatches — without the probes knowing about each other.

   Every event also carries a request id (propagated per domain via
   DLS, see [with_request_id]) and the recording domain's id, so spans
   from a server's worker domains can be stitched back into one
   per-request timeline after the fact.

   When tracing is off ([Control.enabled () = false]) [with_span] is
   exactly [f ()]: no allocation, no lock, no clock read. When on, each
   domain pushes into its own ring (registered once, merged by
   [events ()]), so span exits from concurrent query workers never
   contend on a shared ring lock — only the per-phase histogram update
   serializes, inside the registry. *)

type event = {
  seq : int;
  phase : string;
  depth : int;
  t0_ns : int;
  dur_ns : int;
  blocks : int;
  request_id : int;
  dom : int;
}

(* The one clock: CLOCK_MONOTONIC (ns resolution, never steps), shifted
   by the wall time read once at start, so stamps from two processes
   still line up. *)
let monotonic_ns () = Int64.to_int (Monotonic_clock.now ())
let wall_offset_ns = int_of_float (Unix.gettimeofday () *. 1e9) - monotonic_ns ()
let now_ns () = monotonic_ns () + wall_offset_ns

(* ---------------- request identity ---------------- *)

(* Ids are positive and unique within a process (a counter) and
   unlikely to collide across processes (the base folds in wall clock
   and pid), which is all stitching a client's spans with a server's
   needs. 0 means "no request": spans recorded outside any request
   keep it. *)

let rid_base =
  (int_of_float (Unix.gettimeofday () *. 1e6) * 0x9E3779B9) lxor (Unix.getpid () lsl 24)

let rid_counter = Atomic.make 0

let fresh_request_id () =
  let id = (rid_base + Atomic.fetch_and_add rid_counter 1) land max_int in
  if id = 0 then 1 else id

let rid_key = Domain.DLS.new_key (fun () -> ref 0)

let current_request_id () = !(Domain.DLS.get rid_key)

let with_request_id rid f =
  let r = Domain.DLS.get rid_key in
  let saved = !r in
  r := rid;
  Fun.protect ~finally:(fun () -> r := saved) f

(* ---------------- per-domain rings ---------------- *)

(* Each domain owns one ring (created and registered on first use);
   only the owner writes it, so pushes are lock-free. The mutex guards
   the registry of rings and the structural operations
   ([set_capacity]/[clear]/[events]). [events] reading a ring while its
   owner pushes is a benign race: slots hold immutable event records
   behind a single pointer store, so a reader sees either the old or
   the new event, never a torn one. *)

module Ring = Segdb_util.Ring

let mu = Mutex.create ()
let default_capacity = 4096
let cap = Atomic.make default_capacity
let rings : event Ring.t list ref = ref []
let next_seq = Atomic.make 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r = Ring.create (Atomic.get cap) in
      locked (fun () -> rings := r :: !rings);
      r)

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  locked (fun () ->
      Atomic.set cap n;
      List.iter
        (fun r ->
          Ring.clear r;
          Ring.resize r n)
        !rings;
      Atomic.set next_seq 0)

let clear () =
  locked (fun () ->
      List.iter Ring.clear !rings;
      Atomic.set next_seq 0)

(* Push onto the calling domain's ring. The ring keeps its own write
   cursor (not [seq mod capacity]) so each domain retains its last
   [capacity] events even when seqs interleave across domains. *)
let push ev = Ring.push (Domain.DLS.get ring_key) ev

let events () =
  locked (fun () ->
      List.concat_map Ring.to_list !rings
      |> List.sort (fun (a : event) b -> compare a.seq b.seq))

(* ---------------- spans ---------------- *)

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let span_histogram phase = "span." ^ phase ^ ".ns"
let span_blocks_histogram phase = "span." ^ phase ^ ".blocks"

let push_event ~request_id ~depth ~t0_ns ~dur_ns ~blocks phase =
  push
    {
      seq = Atomic.fetch_and_add next_seq 1;
      phase;
      depth;
      t0_ns;
      dur_ns;
      blocks;
      request_id;
      dom = (Domain.self () :> int);
    }

let with_span ?(blocks = fun () -> 0) phase f =
  if not (Control.enabled ()) then f ()
  else begin
    let d = Domain.DLS.get depth_key in
    let depth = !d and request_id = current_request_id () in
    let b0 = blocks () in
    let t0_ns = now_ns () in
    incr d;
    Fun.protect
      ~finally:(fun () ->
        if !d > 0 then decr d;
        let blocks = max 0 (blocks () - b0) in
        let dur_ns = now_ns () - t0_ns in
        push_event ~request_id ~depth ~t0_ns ~dur_ns ~blocks phase;
        Metrics.observe Metrics.default (span_histogram phase) dur_ns;
        Metrics.observe Metrics.default (span_blocks_histogram phase) blocks)
      f
  end

(* Direct event injection, for intervals whose start and end live on
   different domains (a request's queue wait: stamped at submit on one
   domain, measured at pickup on another). Only the ring sees it: the
   layer that measured the interval owns its histogram. *)
let record ?request_id ?(blocks = 0) ~t0_ns ~dur_ns phase =
  if Control.enabled () then
    let request_id =
      match request_id with Some r -> r | None -> current_request_id ()
    in
    push_event ~request_id ~depth:!(Domain.DLS.get depth_key) ~t0_ns ~dur_ns ~blocks phase
