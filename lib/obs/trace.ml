(* Trace spans: phase-labelled intervals of the query pipeline,
   recorded into per-domain ring buffers and summarized into the
   default registry's per-phase histograms.

   A span is entered with the current block-read count of whatever
   Io_stats the caller is charged against and exited with the same
   counter read again, so each event carries both wall time and blocks
   touched during the phase. Nesting depth is tracked per domain (a
   DLS counter), which lets the dump indent a query's pipeline —
   first-level descent, then the PST / interval-tree / slab probes it
   dispatches — without the probes knowing about each other.

   Every event also carries a request id (propagated per domain via
   DLS, see [with_request_id]) and the recording domain's id, so spans
   from a server's worker domains can be stitched back into one
   per-request timeline after the fact.

   When tracing is off ([Control.enabled () = false]) [enter] returns
   the shared [none] span and [exit] returns immediately: no
   allocation, no lock, no clock read. When on, each domain pushes
   into its own ring (registered once, merged by [events ()]), so span
   exits from concurrent query workers never contend on a shared ring
   lock — only the per-phase histogram update serializes, inside the
   registry. *)

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

type span = { sphase : string; st0 : int; sblocks : int; sdepth : int; srid : int }

let none = { sphase = ""; st0 = 0; sblocks = 0; sdepth = 0; srid = 0 }

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

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

let enter ?(blocks = 0) phase =
  if not (Control.enabled ()) then none
  else begin
    let d = Domain.DLS.get depth_key in
    let sp =
      {
        sphase = phase;
        st0 = now_ns ();
        sblocks = blocks;
        sdepth = !d;
        srid = current_request_id ();
      }
    in
    incr d;
    sp
  end

let exit ?(blocks = 0) sp =
  if sp != none then begin
    let d = Domain.DLS.get depth_key in
    if !d > 0 then decr d;
    let dur = now_ns () - sp.st0 in
    let blocks = max 0 (blocks - sp.sblocks) in
    let seq = Atomic.fetch_and_add next_seq 1 in
    push
      {
        seq;
        phase = sp.sphase;
        depth = sp.sdepth;
        t0_ns = sp.st0;
        dur_ns = dur;
        blocks;
        request_id = sp.srid;
        dom = (Domain.self () :> int);
      };
    Metrics.observe Metrics.default (span_histogram sp.sphase) dur;
    Metrics.observe Metrics.default (span_blocks_histogram sp.sphase) blocks
  end

let with_span ?(blocks = fun () -> 0) phase f =
  if not (Control.enabled ()) then f ()
  else begin
    let sp = enter ~blocks:(blocks ()) phase in
    Fun.protect ~finally:(fun () -> exit ~blocks:(blocks ()) sp) f
  end

(* Direct event injection, for intervals whose start and end live on
   different domains (a request's queue wait: stamped at submit on one
   domain, measured at pickup on another). Records into the calling
   domain's ring and feeds the same per-phase histograms as a span. *)
let record ?request_id ?(blocks = 0) ~t0_ns ~dur_ns phase =
  if Control.enabled () then begin
    let rid = match request_id with Some r -> r | None -> current_request_id () in
    let seq = Atomic.fetch_and_add next_seq 1 in
    push
      {
        seq;
        phase;
        depth = !(Domain.DLS.get depth_key);
        t0_ns;
        dur_ns;
        blocks;
        request_id = rid;
        dom = (Domain.self () :> int);
      };
    Metrics.observe Metrics.default (span_histogram phase) dur_ns;
    Metrics.observe Metrics.default (span_blocks_histogram phase) blocks
  end
