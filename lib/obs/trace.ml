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
   serializes, inside the registry.

   A ring is preallocated columns: int arrays for the numeric fields
   and a string array for the phase names, which callers build once.
   A push stores ints and one pointer to an old string, so it
   allocates nothing and leaves nothing for the minor GC to promote.
   Its owner brackets each slot write with two atomic counters,
   [started] before and [next] after. A reader on another domain
   copies the slots below [next], then drops every one that [started]
   says may have been overwritten meanwhile, so it never returns a
   torn event. *)

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

(* One domain's columns; slot [k mod cap] holds push [k]. Only the
   owning domain pushes. [set_capacity] and [clear] swap in a fresh
   ring instead of touching one an owner may be writing. *)
type ring = {
  dom : int;
  cap : int;
  started : int Atomic.t;  (** pushes begun *)
  next : int Atomic.t;  (** pushes finished *)
  seqs : int array;
  phases : string array;
  depths : int array;
  t0s : int array;
  durs : int array;
  blockss : int array;
  rids : int array;
}

let make_ring ~dom cap =
  let col () = Array.make cap 0 in
  {
    dom;
    cap;
    started = Atomic.make 0;
    next = Atomic.make 0;
    seqs = col ();
    phases = Array.make cap "";
    depths = col ();
    t0s = col ();
    durs = col ();
    blockss = col ();
    rids = col ();
  }

(* The mutex guards the registry of rings and the structural
   operations ([set_capacity]/[clear]/[events]). *)
let mu = Mutex.create ()
let default_capacity = 4096
let cap = Atomic.make default_capacity
let rings : ring Atomic.t list ref = ref []
let next_seq = Atomic.make 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let ring_key =
  Domain.DLS.new_key (fun () ->
      let r = Atomic.make (make_ring ~dom:(Domain.self () :> int) (Atomic.get cap)) in
      locked (fun () -> rings := r :: !rings);
      r)

(* an empty ring of the right size stays: a domain that has ended
   costs one allocation, not one per clear *)
let renew_all () =
  List.iter
    (fun r ->
      let old = Atomic.get r in
      if Atomic.get old.started > 0 || old.cap <> Atomic.get cap then
        Atomic.set r (make_ring ~dom:old.dom (Atomic.get cap)))
    !rings;
  Atomic.set next_seq 0

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: capacity must be positive";
  locked (fun () ->
      Atomic.set cap n;
      renew_all ())

let clear () = locked renew_all

(* Push onto the calling domain's ring. The ring keeps its own write
   cursor (not [seq mod capacity]) so each domain retains its last
   [capacity] events even when seqs interleave across domains. *)
let push ~request_id ~depth ~t0_ns ~dur_ns ~blocks phase =
  let r = Atomic.get (Domain.DLS.get ring_key) in
  let k = Atomic.get r.next in
  Atomic.set r.started (k + 1);
  let i = k mod r.cap in
  r.seqs.(i) <- Atomic.fetch_and_add next_seq 1;
  r.phases.(i) <- phase;
  r.depths.(i) <- depth;
  r.t0s.(i) <- t0_ns;
  r.durs.(i) <- dur_ns;
  r.blockss.(i) <- blocks;
  r.rids.(i) <- request_id;
  Atomic.set r.next (k + 1)

(* Whole events only: a push that began after [next] was read may have
   overwritten a copied slot, and [started] bounds which ones. *)
let ring_events r acc =
  let n = Atomic.get r.next in
  let copied = ref [] in
  for k = max 0 (n - r.cap) to n - 1 do
    let i = k mod r.cap in
    copied :=
      ( k,
        {
          seq = r.seqs.(i);
          phase = r.phases.(i);
          depth = r.depths.(i);
          t0_ns = r.t0s.(i);
          dur_ns = r.durs.(i);
          blocks = r.blockss.(i);
          request_id = r.rids.(i);
          dom = r.dom;
        } )
      :: !copied
  done;
  let oldest_intact = Atomic.get r.started - r.cap in
  List.fold_left (fun acc (k, e) -> if k >= oldest_intact then e :: acc else acc) acc !copied

let events () =
  locked (fun () ->
      List.fold_left (fun acc r -> ring_events (Atomic.get r) acc) [] !rings
      |> List.sort (fun (a : event) b -> compare a.seq b.seq))

(* ---------------- spans ---------------- *)

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let span_histogram phase = "span." ^ phase ^ ".ns"
let span_blocks_histogram phase = "span." ^ phase ^ ".blocks"

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
        push ~request_id ~depth ~t0_ns ~dur_ns ~blocks phase;
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
    push ~request_id ~depth:!(Domain.DLS.get depth_key) ~t0_ns ~dur_ns ~blocks phase
