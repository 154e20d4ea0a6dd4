exception Expired

type entry = { uid : int; epoch : int; payload : Obj.t }

type t = {
  stats : Io_stats.t;
  cache : entry Lru.t;
  mutable hits : int;
  mutable misses : int;
  mutable deadline_ns : int; (* absolute on [Trace.now_ns], 0 = none *)
  mutable armed : bool;
  mutable polls : int; (* domain-local by construction: readers are per-worker *)
}

let create ?(cache_blocks = 64) () =
  {
    stats = Io_stats.create ();
    cache = Lru.create ~capacity:cache_blocks;
    hits = 0;
    misses = 0;
    deadline_ns = 0;
    armed = true;
    polls = 0;
  }

let stats t = t.stats
let cache_hits t = t.hits
let cache_misses t = t.misses

let next_uid = Atomic.make 1
let fresh_uid () = Atomic.fetch_and_add next_uid 1

(* The active context is domain-local: installing a reader on one domain
   never affects stores used from another, which is exactly what lets
   one domain per worker run queries against a shared index. *)
let current : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let active () = !(Domain.DLS.get current)

(* The stats handle reads on this domain are charged to right now: the
   installed reader's counter if any, the given default otherwise.
   Probe sites use it to compute per-span block deltas that stay
   correct inside [with_reader]. *)
let effective_stats default = match active () with Some t -> t.stats | None -> default

let with_reader t f =
  let slot = Domain.DLS.get current in
  let saved = !slot in
  slot := Some t;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* ---------------- deadlines ---------------- *)

let set_deadline t deadline_ns =
  t.deadline_ns <- max 0 deadline_ns;
  t.polls <- 0

let arm t on = t.armed <- on

let expired deadline_ns = deadline_ns > 0 && Segdb_obs.Trace.now_ns () > deadline_ns

let poll_stride = 16

let poll t =
  if t.deadline_ns > 0 && t.armed then begin
    t.polls <- t.polls + 1;
    if t.polls land (poll_stride - 1) = 0 && expired t.deadline_ns then raise Expired
  end

(* ---------------- the shard ---------------- *)

(* Global registry mirrors of the per-reader counters: they live inside
   each reader, so a scraper (which never holds a reader) could not
   compute a fleet-wide hit rate from them. Bumped by hand rather than
   via [Probe] — Probe sits above this module (it reads
   [effective_stats]). *)
let c_hits = Segdb_obs.Metrics.counter Segdb_obs.Metrics.default "cache.hits"
let c_misses = Segdb_obs.Metrics.counter Segdb_obs.Metrics.default "cache.misses"

(* An entry cached before its store's last write or free is a miss: the
   caller refetches the block and [add] replaces the entry. *)
let find t ~uid ~epoch ~addr =
  match Lru.find t.cache addr with
  | Some e when e.uid <> uid ->
      invalid_arg
        "Read_context: address resolved to a block of a different store; a reader \
         must not be shared across databases"
  | Some e when e.epoch = epoch ->
      t.hits <- t.hits + 1;
      if Segdb_obs.Control.enabled () then Segdb_obs.Metrics.incr c_hits;
      Some e.payload
  | Some _ | None ->
      t.misses <- t.misses + 1;
      if Segdb_obs.Control.enabled () then Segdb_obs.Metrics.incr c_misses;
      None

let add t ~uid ~epoch ~addr payload =
  (* reader frames are never dirty, so eviction costs nothing *)
  Lru.put t.cache addr { uid; epoch; payload } ~on_evict:(fun _ _ -> ())
