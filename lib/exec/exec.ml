open Segdb_geom
module Db = Segdb_core.Segdb
module Cancel = Segdb_io.Cancel
module Io_stats = Segdb_io.Io_stats
module Read_context = Segdb_io.Read_context
module Obs = Segdb_obs

(* ---------------- requests and outcomes ---------------- *)

type request = {
  rq_queries : Vquery.t array;
  rq_deadline_ns : int; (* absolute, 0 = none; clock starts at construction *)
  rq_degraded_ok : bool;
  rq_trace : bool;
  rq_id : int; (* request id carried into trace spans; never 0 *)
}

let request ?(deadline_ms = 0) ?(degraded_ok = true) ?(trace = false) ?request_id queries =
  let deadline_ns =
    if deadline_ms > 0 then Obs.Trace.now_ns () + (deadline_ms * 1_000_000) else 0
  in
  let rq_id =
    match request_id with
    | Some rid when rid <> 0 -> rid
    | _ -> Obs.Trace.fresh_request_id ()
  in
  {
    rq_queries = queries;
    rq_deadline_ns = deadline_ns;
    rq_degraded_ok = degraded_ok;
    rq_trace = trace;
    rq_id;
  }

let request_id r = r.rq_id

type outcome =
  | Ok of int list array
  | Degraded of int list array * string list
  | Deadline_exceeded of { partial : int list array; completed : int }
  | Overloaded
  | Cancelled of { partial : int list array; completed : int }

let outcome_name = function
  | Ok _ -> "ok"
  | Degraded _ -> "degraded"
  | Deadline_exceeded _ -> "deadline"
  | Overloaded -> "overloaded"
  | Cancelled _ -> "cancelled"

let pp_outcome ppf = function
  | Ok out -> Format.fprintf ppf "ok (%d queries)" (Array.length out)
  | Degraded (out, faults) ->
      Format.fprintf ppf "degraded (%d queries, %d faults)" (Array.length out)
        (List.length faults)
  | Deadline_exceeded { partial; completed } ->
      Format.fprintf ppf "deadline exceeded (%d/%d completed)" completed
        (Array.length partial)
  | Overloaded -> Format.fprintf ppf "overloaded"
  | Cancelled { partial; completed } ->
      Format.fprintf ppf "cancelled (%d/%d completed)" completed (Array.length partial)

(* ---------------- the pool ---------------- *)

type job = unit -> unit

type t = {
  size : int;
  queue_depth : int;
  jobs : job Queue.t;
  m : Mutex.t;
  c : Condition.t;
  mutable pending : int; (* admitted submits not yet picked up; gates admission *)
  stopping : bool Atomic.t;
  mutable workers : unit Domain.t array;
  busy_ : int Atomic.t; (* workers currently inside a job — pool occupancy *)
  (* metric handles, resolved once; shared names across pools sum up *)
  g_depth : Obs.Metrics.gauge;
  g_busy : Obs.Metrics.gauge;
  c_deadline : Obs.Metrics.counter;
  c_cancelled : Obs.Metrics.counter;
}

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.m;
    while Queue.is_empty t.jobs && not (Atomic.get t.stopping) do
      Condition.wait t.c t.m
    done;
    match Queue.take_opt t.jobs with
    | None ->
        (* stopping and drained *)
        Mutex.unlock t.m
    | Some job ->
        if Obs.Control.enabled () then Obs.Metrics.set_gauge t.g_depth (Queue.length t.jobs);
        Mutex.unlock t.m;
        Atomic.incr t.busy_;
        if Obs.Control.enabled () then
          Obs.Metrics.set_gauge t.g_busy (Atomic.get t.busy_);
        Fun.protect ~finally:(fun () ->
            Atomic.decr t.busy_;
            if Obs.Control.enabled () then
              Obs.Metrics.set_gauge t.g_busy (Atomic.get t.busy_))
          job;
        loop ()
  in
  loop ()

let create ?(queue_depth = 128) ~workers () =
  let t =
    {
      size = max 1 workers;
      queue_depth = max 0 queue_depth;
      jobs = Queue.create ();
      m = Mutex.create ();
      c = Condition.create ();
      pending = 0;
      stopping = Atomic.make false;
      workers = [||];
      busy_ = Atomic.make 0;
      g_depth = Obs.Metrics.gauge Obs.Metrics.default "exec.queue_depth";
      g_busy = Obs.Metrics.gauge Obs.Metrics.default "exec.pool_busy";
      c_deadline = Obs.Metrics.counter Obs.Metrics.default "exec.deadline_exceeded";
      c_cancelled = Obs.Metrics.counter Obs.Metrics.default "exec.cancelled";
    }
  in
  t.workers <- Array.init t.size (fun _ -> Domain.spawn (worker_loop t));
  t

let size t = t.size
let busy t = Atomic.get t.busy_

let queued t =
  Mutex.lock t.m;
  let n = Queue.length t.jobs in
  Mutex.unlock t.m;
  n

let shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    Mutex.lock t.m;
    Condition.broadcast t.c;
    Mutex.unlock t.m;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* Helper jobs for [run] bypass admission: they are opportunistic — the
   caller answers the batch alone if no worker ever picks one up. *)
let push_helper t job =
  Mutex.lock t.m;
  Queue.push job t.jobs;
  if Obs.Control.enabled () then Obs.Metrics.set_gauge t.g_depth (Queue.length t.jobs);
  Condition.signal t.c;
  Mutex.unlock t.m

(* ---------------- per-query execution ---------------- *)

let ids_of_segs segs =
  List.sort_uniq compare (List.map (fun (s : Segment.t) -> s.id) segs)

(* One query through a reader. [degraded_ok] routes through
   [query_safe]: storage faults come back as strings instead of
   raising ([Injected_crash] still propagates — process death). *)
let query_one ~degraded_ok db r q =
  if degraded_ok then begin
    let d = Db.with_reader r (fun () -> Db.query_safe db q) in
    (ids_of_segs d.Db.Degraded.value, d.Db.Degraded.faults)
  end
  else (Db.query_ids_r db r q, [])

(* ---------------- cooperative fan-out ---------------- *)

type worker_stats = {
  worker : int;
  queries : int;
  reads : int;
  cache_hits : int;
  cache_misses : int;
}

type stop_reason = R_fault of exn * Printexc.raw_backtrace | R_deadline | R_cancel

(* The core of [run].

   Shape: the caller is participant 0-or-later (slots are claimed with
   a fetch-and-add, first come first slotted); up to [domains - 1]
   helper jobs are enqueued on the pool. Everyone pulls query indexes
   off one shared cursor until it runs dry or a stop reason (fault,
   deadline, cancel) is posted.

   Termination protocol: a participant increments [running] and only
   then checks [closed]; the caller sets [closed] after its own loop
   and spins until [running] drops to zero. A helper that starts after
   [closed] (the pool was busy; the batch is already done) sees the
   flag and exits without touching the arrays, so stale helpers are
   harmless no-ops. *)
let run_batch pool ?readers ?flag ~request_id ~deadline_ns ~degraded_ok db qs ~domains =
  let n = Array.length qs in
  let out = Array.make n [] in
  let stats =
    Array.init domains (fun k ->
        { worker = k; queries = 0; reads = 0; cache_hits = 0; cache_misses = 0 })
  in
  let pfaults = Array.make domains [] in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let slot = Atomic.make 0 in
  let running = Atomic.make 0 in
  let closed = Atomic.make false in
  let stop : stop_reason option Atomic.t = Atomic.make None in
  let post reason = ignore (Atomic.compare_and_set stop None (Some reason)) in
  let flag = match flag with Some f -> f | None -> Atomic.make false in
  let inline = pool.size <= 1 || domains <= 1 in
  let participant () =
    let k = Atomic.fetch_and_add slot 1 in
    if k < domains then begin
      Atomic.incr running;
      if not (Atomic.get closed) then begin
        let r = match readers with Some rs -> rs.(k) | None -> Db.reader db in
        let h = Cancel.create ~deadline_ns ~flag () in
        let lat = if Obs.Control.enabled () then Some (Obs.Histogram.create ()) else None in
        let served = ref 0 in
        let h0 = Read_context.cache_hits r and m0 = Read_context.cache_misses r in
        let r0 = Io_stats.reads (Db.reader_io r) in
        let rec loop first =
          if Atomic.get closed || Atomic.get stop <> None then ()
          else if Cancel.cancelled h then post R_cancel
          else if (not first) && Cancel.expired h then post R_deadline
          else begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (* first-query immunity: the deadline arms only once this
                 participant has answered something, so a tight budget
                 degrades to a partial batch, never an empty one *)
              Cancel.set_deadline_enabled h (not first);
              let ids, faults =
                match lat with
                | Some hist ->
                    let t0 = Obs.Trace.now_ns () in
                    let res = query_one ~degraded_ok db r qs.(i) in
                    Obs.Histogram.record hist (Obs.Trace.now_ns () - t0);
                    res
                | None -> query_one ~degraded_ok db r qs.(i)
              in
              out.(i) <- ids;
              if faults <> [] then pfaults.(k) <- List.rev_append faults pfaults.(k);
              incr served;
              loop false
            end
          end
        in
        (* the handle is installed once for the whole batch — per-query
           install cost (DLS save/restore, the process-wide counter)
           would dominate cheap queries *)
        let install () =
          (* attribute this participant's spans to the request; helpers
             run on pool domains whose DLS id would otherwise be stale *)
          if request_id <> 0 && Obs.Control.enabled () then
            Obs.Trace.with_request_id request_id (fun () ->
                Cancel.install h (fun () -> loop true))
          else Cancel.install h (fun () -> loop true)
        in
        (match install () with
        | () -> ()
        | exception Cancel.Cancelled Cancel.Deadline -> post R_deadline
        | exception Cancel.Cancelled Cancel.Explicit -> post R_cancel
        | exception e -> post (R_fault (e, Printexc.get_raw_backtrace ())));
        (* folded once per participant — a per-query RMW on a shared
           counter is measurable against cheap queries *)
        ignore (Atomic.fetch_and_add completed !served);
        (match lat with
        | Some hist ->
            Obs.Metrics.merge_histogram Obs.Metrics.default "parallel.query.ns" hist
        | None -> ());
        stats.(k) <-
          {
            worker = k;
            queries = !served;
            reads = Io_stats.reads (Db.reader_io r) - r0;
            cache_hits = Read_context.cache_hits r - h0;
            cache_misses = Read_context.cache_misses r - m0;
          }
      end;
      Atomic.decr running
    end
  in
  if not inline then
    for _ = 1 to min (domains - 1) pool.size do
      push_helper pool participant
    done;
  participant ();
  Atomic.set closed true;
  while Atomic.get running > 0 do
    Domain.cpu_relax ()
  done;
  let faults =
    Array.fold_left (fun acc l -> acc @ List.rev l) [] pfaults
  in
  let outcome =
    match Atomic.get stop with
    | Some (R_fault (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some R_deadline ->
        if Obs.Control.enabled () then Obs.Metrics.incr pool.c_deadline;
        Deadline_exceeded { partial = out; completed = Atomic.get completed }
    | Some R_cancel ->
        if Obs.Control.enabled () then Obs.Metrics.incr pool.c_cancelled;
        Cancelled { partial = out; completed = Atomic.get completed }
    | None -> if faults = [] then Ok out else Degraded (out, faults)
  in
  (outcome, stats)

(* One slow-query record. [mk] is only called past the threshold, so
   the query rendering never runs on the fast path. *)
let slowlog_entry ~request_id ~wall_ns ~queue_wait_ns ~blocks ~cache_hits ~cache_misses req
    outcome =
  {
    Obs.Slowlog.request_id;
    query =
      (if Array.length req.rq_queries = 0 then "-"
       else Format.asprintf "%a" Vquery.pp req.rq_queries.(0));
    queries = Array.length req.rq_queries;
    outcome = outcome_name outcome;
    wall_ns;
    queue_wait_ns;
    blocks;
    cache_hits;
    cache_misses;
    at_ns = Obs.Trace.now_ns ();
  }

let run ?readers ?cancel pool db req ~domains =
  if domains < 1 then invalid_arg "Exec.run: domains must be >= 1";
  (match readers with
  | Some rs when Array.length rs <> domains ->
      invalid_arg "Exec.run: readers array must have one reader per domain"
  | _ -> ());
  let exec () =
    run_batch pool ?readers ?flag:cancel ~request_id:req.rq_id
      ~deadline_ns:req.rq_deadline_ns ~degraded_ok:req.rq_degraded_ok db req.rq_queries
      ~domains
  in
  let traced () = if req.rq_trace then Obs.Trace.with_span "exec.batch" exec else exec () in
  let slow = Obs.Slowlog.enabled () in
  let t0 = if slow then Obs.Trace.now_ns () else 0 in
  let ((outcome, stats) as res) =
    (* the caller participates, so its own spans need the id too *)
    if req.rq_id <> 0 && Obs.Control.enabled () then
      Obs.Trace.with_request_id req.rq_id traced
    else traced ()
  in
  if slow then
    Obs.Slowlog.note ~wall_ns:(Obs.Trace.now_ns () - t0) (fun () ->
        let blocks = Array.fold_left (fun a (s : worker_stats) -> a + s.reads) 0 stats in
        let hits =
          Array.fold_left (fun a (s : worker_stats) -> a + s.cache_hits) 0 stats
        in
        let misses =
          Array.fold_left (fun a (s : worker_stats) -> a + s.cache_misses) 0 stats
        in
        slowlog_entry ~request_id:req.rq_id ~wall_ns:(Obs.Trace.now_ns () - t0)
          ~queue_wait_ns:0 ~blocks ~cache_hits:hits ~cache_misses:misses req outcome);
  res

(* ---------------- submitted execution ---------------- *)

type ticket = {
  tk_req : request;
  tk_flag : bool Atomic.t;
  tk_m : Mutex.t;
  tk_c : Condition.t;
  mutable tk_outcome : outcome option;
  mutable tk_served_by : int;
  tk_submitted_ns : int;
  tk_on_complete : (outcome -> unit) option;
  tk_pool : t;
}

let finish tk outcome =
  (match outcome with
  | Deadline_exceeded { completed; _ } ->
      if Obs.Log.would_log Obs.Log.Info then
        Obs.Log.info ~comp:"exec" "deadline exceeded" (fun () ->
            [
              Obs.Log.i "request_id" tk.tk_req.rq_id;
              Obs.Log.i "completed" completed;
              Obs.Log.i "queries" (Array.length tk.tk_req.rq_queries);
            ])
  | Cancelled { completed; _ } ->
      if Obs.Log.would_log Obs.Log.Info then
        Obs.Log.info ~comp:"exec" "request cancelled" (fun () ->
            [ Obs.Log.i "request_id" tk.tk_req.rq_id; Obs.Log.i "completed" completed ])
  | Ok _ | Degraded _ | Overloaded -> ());
  if Obs.Control.enabled () then begin
    (match outcome with
    | Deadline_exceeded _ -> Obs.Metrics.incr tk.tk_pool.c_deadline
    | Cancelled _ -> Obs.Metrics.incr tk.tk_pool.c_cancelled
    | Ok _ | Degraded _ | Overloaded -> ());
    Obs.Metrics.observe Obs.Metrics.default "exec.request.ns"
      (Obs.Trace.now_ns () - tk.tk_submitted_ns)
  end;
  Mutex.lock tk.tk_m;
  tk.tk_outcome <- Some outcome;
  Condition.broadcast tk.tk_c;
  Mutex.unlock tk.tk_m;
  match tk.tk_on_complete with None -> () | Some f -> f outcome

(* Per-domain reader cache for the submit path: a worker serving a
   stream of requests against one database keeps its LRU shard warm
   across requests — the behavior the network server had when it owned
   its workers. Keyed by physical identity of the database plus its
   mutation generation: a shard warmed before an insert or delete may
   hold stale pages, so the reader is rebuilt when the generation has
   moved. *)
let dls_readers : (Obj.t * int * Db.reader) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cached_reader ?cache_blocks db =
  let slot = Domain.DLS.get dls_readers in
  let key = Obj.repr db in
  let gen = Db.generation db in
  match List.find_opt (fun (k, g, _) -> k == key && g = gen) !slot with
  | Some (_, _, r) -> r
  | None ->
      let r = Db.reader ?cache_blocks db in
      slot := (key, gen, r) :: List.filter (fun (k, _, _) -> k != key) !slot;
      r

(* Runs on a worker domain. Single-threaded over the batch, in order;
   the same first-query immunity and cancellation points as the
   cooperative path. *)
let execute tk ?cache_blocks db =
  tk.tk_served_by <- (Domain.self () :> int);
  let req = tk.tk_req in
  let obs = Obs.Control.enabled () in
  let slow = Obs.Slowlog.enabled () in
  let pickup_ns = if obs || slow then Obs.Trace.now_ns () else 0 in
  if obs then begin
    (* the queued interval: stamped at submit on the submitting domain,
       measured here on the worker — hence [record], not a span *)
    let wait = max 0 (pickup_ns - tk.tk_submitted_ns) in
    Obs.Metrics.observe Obs.Metrics.default "exec.queue_wait.ns" wait;
    Obs.Trace.record ~request_id:req.rq_id ~t0_ns:tk.tk_submitted_ns ~dur_ns:wait
      "exec.queue_wait"
  end;
  let qs = req.rq_queries in
  let n = Array.length qs in
  let out = Array.make n [] in
  let faults = ref [] in
  let completed = ref 0 in
  let blocks = ref 0 and hits = ref 0 and misses = ref 0 in
  let h = Cancel.create ~deadline_ns:req.rq_deadline_ns ~flag:tk.tk_flag () in
  let reason = ref `None in
  if Cancel.cancelled h then reason := `Cancel
  else if Cancel.expired h then
    (* expired while queued: refuse to start — the immunity rule only
       protects requests that reached a worker in time *)
    reason := `Deadline
  else begin
    let r = cached_reader ?cache_blocks db in
    let r0 = if slow then Io_stats.reads (Db.reader_io r) else 0 in
    let h0 = if slow then Read_context.cache_hits r else 0 in
    let m0 = if slow then Read_context.cache_misses r else 0 in
    let i = ref 0 in
    (* installed once for the whole batch, same as the cooperative path *)
    let body () =
      Cancel.install h (fun () ->
          while !reason = `None && !i < n do
            if Cancel.cancelled h then reason := `Cancel
            else if !completed > 0 && Cancel.expired h then reason := `Deadline
            else begin
              Cancel.set_deadline_enabled h (!completed > 0);
              (match query_one ~degraded_ok:req.rq_degraded_ok db r qs.(!i) with
              | ids, fs ->
                  out.(!i) <- ids;
                  if fs <> [] then faults := List.rev_append fs !faults;
                  incr completed
              | exception Cancel.Cancelled Cancel.Deadline -> reason := `Deadline
              | exception Cancel.Cancelled Cancel.Explicit -> reason := `Cancel
              | exception (Segdb_io.Failpoint.Injected_crash _ as e) ->
                  raise e (* models process death: kill this worker *)
              | exception e -> reason := `Fault (Printexc.to_string e));
              incr i
            end
          done)
    in
    let traced () =
      if req.rq_trace && obs then Obs.Trace.with_span "exec.batch" body else body ()
    in
    (* attribute the worker's storage spans to the request *)
    if obs then Obs.Trace.with_request_id req.rq_id traced else traced ();
    if slow then begin
      blocks := Io_stats.reads (Db.reader_io r) - r0;
      hits := Read_context.cache_hits r - h0;
      misses := Read_context.cache_misses r - m0
    end
  end;
  let outcome =
    match !reason with
    | `None ->
        let fs = List.rev !faults in
        if fs = [] then Ok out else Degraded (out, fs)
    | `Deadline -> Deadline_exceeded { partial = out; completed = !completed }
    | `Cancel -> Cancelled { partial = out; completed = !completed }
    | `Fault m -> Degraded (out, List.rev (m :: !faults))
  in
  if obs then
    Obs.Metrics.observe Obs.Metrics.default "exec.service.ns"
      (Obs.Trace.now_ns () - pickup_ns);
  if slow then
    Obs.Slowlog.note ~wall_ns:(Obs.Trace.now_ns () - tk.tk_submitted_ns) (fun () ->
        slowlog_entry ~request_id:req.rq_id
          ~wall_ns:(Obs.Trace.now_ns () - tk.tk_submitted_ns)
          ~queue_wait_ns:(max 0 (pickup_ns - tk.tk_submitted_ns))
          ~blocks:!blocks ~cache_hits:!hits ~cache_misses:!misses req outcome);
  finish tk outcome

let submit ?cache_blocks ?on_complete pool db req =
  let tk =
    {
      tk_req = req;
      tk_flag = Atomic.make false;
      tk_m = Mutex.create ();
      tk_c = Condition.create ();
      tk_outcome = None;
      tk_served_by = -1;
      tk_submitted_ns = Obs.Trace.now_ns ();
      tk_on_complete = on_complete;
      tk_pool = pool;
    }
  in
  Mutex.lock pool.m;
  let admitted =
    (not (Atomic.get pool.stopping)) && pool.pending < pool.queue_depth
  in
  if admitted then begin
    pool.pending <- pool.pending + 1;
    Queue.push
      (fun () ->
        Mutex.lock pool.m;
        pool.pending <- pool.pending - 1;
        Mutex.unlock pool.m;
        execute tk ?cache_blocks db)
      pool.jobs;
    if Obs.Control.enabled () then
      Obs.Metrics.set_gauge pool.g_depth (Queue.length pool.jobs);
    Condition.signal pool.c
  end;
  Mutex.unlock pool.m;
  if not admitted then begin
    if Obs.Log.would_log Obs.Log.Warn then
      Obs.Log.warn ~comp:"exec" "request refused: queue full" (fun () ->
          [
            Obs.Log.i "request_id" req.rq_id;
            Obs.Log.i "queue_depth" pool.queue_depth;
            Obs.Log.i "queries" (Array.length req.rq_queries);
          ]);
    finish tk Overloaded
  end;
  tk

let await tk =
  Mutex.lock tk.tk_m;
  while Option.is_none tk.tk_outcome do
    Condition.wait tk.tk_c tk.tk_m
  done;
  let o = Option.get tk.tk_outcome in
  Mutex.unlock tk.tk_m;
  o

let peek tk =
  Mutex.lock tk.tk_m;
  let o = tk.tk_outcome in
  Mutex.unlock tk.tk_m;
  o

let cancel tk = Atomic.set tk.tk_flag true
let served_by tk = tk.tk_served_by

(* ---------------- the process-default pool ---------------- *)

let default_workers_override = ref None

let default_pool : t option ref = ref None
let default_m = Mutex.create ()

let set_default_workers n =
  Mutex.lock default_m;
  if !default_pool = None && n > 0 then default_workers_override := Some n;
  Mutex.unlock default_m

let default () =
  Mutex.lock default_m;
  let p =
    match !default_pool with
    | Some p -> p
    | None ->
        let workers =
          match !default_workers_override with
          | Some n -> n
          | None -> max 1 (Domain.recommended_domain_count () - 1)
        in
        let p = create ~workers () in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_m;
  p
