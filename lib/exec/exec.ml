open Segdb_geom
module Db = Segdb_core.Segdb
module Io_stats = Segdb_io.Io_stats
module Read_context = Segdb_io.Read_context
module Obs = Segdb_obs

(* ---------------- requests and outcomes ---------------- *)

type request = {
  rq_queries : Vquery.t array;
  rq_deadline_ns : int;
      (* absolute on [Trace.now_ns], 0 = none; clock starts at construction *)
  rq_trace : bool;
  rq_id : int; (* request id carried into trace spans; never 0 *)
}

let request ?(deadline_ms = 0) ?(trace = false) ?request_id queries =
  let deadline_ns =
    if deadline_ms > 0 then Obs.Trace.now_ns () + (deadline_ms * 1_000_000) else 0
  in
  let rq_id =
    match request_id with
    | Some rid when rid <> 0 -> rid
    | _ -> Obs.Trace.fresh_request_id ()
  in
  { rq_queries = queries; rq_deadline_ns = deadline_ns; rq_trace = trace; rq_id }

let request_id r = r.rq_id

type outcome =
  | Ok of int list array
  | Degraded of int list array * string list
  | Deadline_exceeded of { partial : int list array; completed : int }
  | Overloaded

let outcome_name = function
  | Ok _ -> "ok"
  | Degraded _ -> "degraded"
  | Deadline_exceeded _ -> "deadline"
  | Overloaded -> "overloaded"

let pp_outcome ppf = function
  | Ok out -> Format.fprintf ppf "ok (%d queries)" (Array.length out)
  | Degraded (out, faults) ->
      Format.fprintf ppf "degraded (%d queries, %d faults)" (Array.length out)
        (List.length faults)
  | Deadline_exceeded { partial; completed } ->
      Format.fprintf ppf "deadline exceeded (%d/%d completed)" completed
        (Array.length partial)
  | Overloaded -> Format.fprintf ppf "overloaded"

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
  c_deadline : Obs.Metrics.counter;
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
        Mutex.unlock t.m;
        Atomic.incr t.busy_;
        Fun.protect ~finally:(fun () -> Atomic.decr t.busy_) job;
        loop ()
  in
  loop ()

let create ?(queue_depth = 128) ~workers () =
  let size = max 0 workers in
  let t =
    {
      size;
      (* with no worker to pick a submit up, admit none *)
      queue_depth = (if size = 0 then 0 else max 0 queue_depth);
      jobs = Queue.create ();
      m = Mutex.create ();
      c = Condition.create ();
      pending = 0;
      stopping = Atomic.make false;
      workers = [||];
      busy_ = Atomic.make 0;
      c_deadline = Obs.Metrics.counter Obs.Metrics.default "exec.deadline_exceeded";
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
  Condition.signal t.c;
  Mutex.unlock t.m

(* ---------------- the per-query loop ---------------- *)

type worker_stats = {
  worker : int;
  queries : int;
  reads : int;
  cache_hits : int;
  cache_misses : int;
}

(* the row of a slot no participant filled, shared until then *)
let idle = { worker = 0; queries = 0; reads = 0; cache_hits = 0; cache_misses = 0 }

type stop_reason = R_fault of exn * Printexc.raw_backtrace | R_deadline

(* the first reason posted wins *)
let post stop reason = ignore (Atomic.compare_and_set stop None (Some reason))

(* The one loop every request runs through: [run] with up to [domains]
   participants, a submitted request with one — the worker that picked
   it up.

   Shape: the caller is participant 0-or-later (slots are claimed with
   a fetch-and-add, first come first slotted); up to [domains - 1]
   helper jobs are enqueued on the pool. Everyone pulls query indexes
   off one shared cursor until it runs dry or a stop reason (fault,
   deadline) is posted. Storage faults come back per query as strings;
   any other exception stops every participant, and
   [contain_faults] decides its fate: [run] re-raises it to its
   caller, while a worker serving [submit] has no caller to raise to,
   so it becomes one more fault string. [Injected_crash] always
   propagates — it models process death, not a servable fault.

   Termination protocol: a participant increments [running] and only
   then checks [closed]; the caller sets [closed] after its own loop
   and spins until [running] drops to zero. A helper that starts after
   [closed] (the pool was busy; the batch is already done) sees the
   flag and exits without touching the arrays, so stale helpers are
   harmless no-ops. *)
let run_batch pool ~reader ~contain_faults db req ~domains =
  let qs = req.rq_queries and deadline_ns = req.rq_deadline_ns in
  let n = Array.length qs in
  let out = Array.make n [] in
  let stats = Array.make domains idle in
  let pfaults = Array.make domains [] in
  let next = Atomic.make 0 in
  let completed = Atomic.make 0 in
  let slot = Atomic.make 0 in
  let running = Atomic.make 0 in
  let closed = Atomic.make false in
  let stop : stop_reason option Atomic.t = Atomic.make None in
  let participant () =
    let k = Atomic.fetch_and_add slot 1 in
    if k < domains then begin
      Atomic.incr running;
      if not (Atomic.get closed) then begin
        let r = reader () in
        let served = ref 0 in
        let h0 = Read_context.cache_hits r and m0 = Read_context.cache_misses r in
        let r0 = Io_stats.reads (Db.reader_io r) in
        let rec loop first =
          if Atomic.get closed || Atomic.get stop <> None then ()
          else if (not first) && Read_context.expired deadline_ns then post stop R_deadline
          else begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              (* first-query immunity: the deadline arms only once this
                 participant has answered something, so a tight budget
                 degrades to a partial batch, never an empty one *)
              Read_context.arm r (not first);
              let d = Db.query_safe db qs.(i) in
              out.(i) <- d.Db.Degraded.value;
              if d.Db.Degraded.faults <> [] then
                pfaults.(k) <- List.rev_append d.Db.Degraded.faults pfaults.(k);
              incr served;
              loop false
            end
          end
        in
        (* the reader is installed once for the whole batch — a
           per-query DLS save/restore would dominate cheap queries *)
        Read_context.set_deadline r deadline_ns;
        (match Db.with_reader r (fun () -> loop true) with
        | () -> ()
        | exception Read_context.Expired -> post stop R_deadline
        | exception e -> post stop (R_fault (e, Printexc.get_raw_backtrace ())));
        (* a cached reader outlives this request *)
        Read_context.set_deadline r 0;
        (* folded once per participant — a per-query RMW on a shared
           counter is measurable against cheap queries *)
        ignore (Atomic.fetch_and_add completed !served);
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
  let body () =
    if domains > 1 then begin
      (* helpers run on pool domains whose DLS request id would
         otherwise be stale; the caller's participant runs under the
         id set below *)
      let helper () =
        if Obs.Control.enabled () then Obs.Trace.with_request_id req.rq_id participant
        else participant ()
      in
      for _ = 1 to min (domains - 1) pool.size do
        push_helper pool helper
      done
    end;
    participant ();
    Atomic.set closed true;
    while Atomic.get running > 0 do
      Domain.cpu_relax ()
    done
  in
  if not (Obs.Control.enabled ()) then body ()
  else if req.rq_trace then
    Obs.Trace.with_request_id req.rq_id (fun () -> Obs.Trace.with_span "exec.batch" body)
  else Obs.Trace.with_request_id req.rq_id body;
  for k = 1 to domains - 1 do
    if stats.(k) == idle then stats.(k) <- { idle with worker = k }
  done;
  let faults = Array.fold_left (fun acc l -> acc @ List.rev l) [] pfaults in
  let outcome =
    match Atomic.get stop with
    | Some (R_fault ((Segdb_io.Failpoint.Injected_crash _ as e), bt)) ->
        Printexc.raise_with_backtrace e bt
    | Some (R_fault (e, _)) when contain_faults ->
        Degraded (out, faults @ [ Printexc.to_string e ])
    | Some (R_fault (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some R_deadline ->
        Deadline_exceeded { partial = out; completed = Atomic.get completed }
    | None -> if faults = [] then Ok out else Degraded (out, faults)
  in
  (outcome, stats)

(* Where every executed request leaves its signals, [run] and [submit]
   alike: the deadline counter and log event, and — past the armed
   threshold — a slow-query record. [t0_ns] starts the request's wall
   time (the call for [run], the submit for [submit]). The record is
   only built past the threshold, so the query rendering never runs on
   the fast path. *)
let note_outcome pool req ~t0_ns ~queue_wait_ns stats outcome =
  (match outcome with
  | Deadline_exceeded { completed; _ } ->
      if Obs.Control.enabled () then Obs.Metrics.incr pool.c_deadline;
      if Obs.Log.would_log Obs.Log.Info then
        Obs.Log.info ~comp:"exec" "deadline exceeded" (fun () ->
            [
              Obs.Log.i "request_id" req.rq_id;
              Obs.Log.i "completed" completed;
              Obs.Log.i "queries" (Array.length req.rq_queries);
            ])
  | Ok _ | Degraded _ | Overloaded -> ());
  if Obs.Slowlog.enabled () then begin
    let wall_ns = Obs.Trace.now_ns () - t0_ns in
    Obs.Slowlog.note ~wall_ns (fun () ->
        let sum f = Array.fold_left (fun a (s : worker_stats) -> a + f s) 0 stats in
        {
          Obs.Slowlog.request_id = req.rq_id;
          query =
            (if Array.length req.rq_queries = 0 then "-"
             else Format.asprintf "%a" Vquery.pp req.rq_queries.(0));
          queries = Array.length req.rq_queries;
          outcome = outcome_name outcome;
          wall_ns;
          queue_wait_ns;
          blocks = sum (fun s -> s.reads);
          cache_hits = sum (fun s -> s.cache_hits);
          cache_misses = sum (fun s -> s.cache_misses);
          at_ns = Obs.Trace.now_ns ();
        })
  end

let run pool db req ~domains =
  if domains < 1 then invalid_arg "Exec.run: domains must be >= 1";
  let t0_ns = Obs.Trace.now_ns () in
  let ((outcome, stats) as res) =
    run_batch pool ~reader:(fun () -> Db.reader db) ~contain_faults:false db req ~domains
  in
  note_outcome pool req ~t0_ns ~queue_wait_ns:0 stats outcome;
  res

(* ---------------- submitted execution ---------------- *)

type ticket = {
  tk_req : request;
  tk_m : Mutex.t;
  tk_c : Condition.t;
  mutable tk_outcome : outcome option;
  mutable tk_served_by : int;
  tk_submitted_ns : int;
  tk_on_complete : (outcome -> unit) option;
}

let finish tk outcome =
  Mutex.lock tk.tk_m;
  tk.tk_outcome <- Some outcome;
  Condition.broadcast tk.tk_c;
  Mutex.unlock tk.tk_m;
  match tk.tk_on_complete with None -> () | Some f -> f outcome

(* Per-domain reader cache for the submit path: a worker serving a
   stream of requests against one database keeps its LRU shard warm
   across requests — the behavior the network server had when it owned
   its workers. Keyed by the database's physical identity alone: the
   reader survives writes, because the storage layer treats a shard
   entry cached before its store's last write as a miss. *)
let dls_readers : (Db.t * Db.reader) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cached_reader db =
  let slot = Domain.DLS.get dls_readers in
  match List.find_opt (fun (d, _) -> d == db) !slot with
  | Some (_, r) -> r
  | None ->
      let r = Db.reader db in
      slot := (db, r) :: !slot;
      r

(* Runs on the worker that picked the request up: [run_batch] with that
   worker as its one participant, through its cached reader. *)
let serve pool tk db =
  tk.tk_served_by <- (Domain.self () :> int);
  let req = tk.tk_req in
  let obs = Obs.Control.enabled () in
  let pickup_ns = Obs.Trace.now_ns () in
  let queue_wait_ns = max 0 (pickup_ns - tk.tk_submitted_ns) in
  if obs then begin
    (* the queued interval: stamped at submit on the submitting domain,
       measured here on the worker — hence [record], not a span *)
    Obs.Metrics.observe Obs.Metrics.default "exec.queue_wait.ns" queue_wait_ns;
    Obs.Trace.record ~request_id:req.rq_id ~t0_ns:tk.tk_submitted_ns ~dur_ns:queue_wait_ns
      "exec.queue_wait"
  end;
  let outcome, stats =
    if Read_context.expired req.rq_deadline_ns then
      (* expired while queued: refuse to start — the immunity rule only
         protects requests that reached a worker in time *)
      ( Deadline_exceeded
          { partial = Array.make (Array.length req.rq_queries) []; completed = 0 },
        [||] )
    else
      run_batch pool
        ~reader:(fun () -> cached_reader db)
        ~contain_faults:true db req ~domains:1
  in
  if obs then
    Obs.Metrics.observe Obs.Metrics.default "exec.service.ns"
      (Obs.Trace.now_ns () - pickup_ns);
  note_outcome pool req ~t0_ns:tk.tk_submitted_ns ~queue_wait_ns stats outcome;
  finish tk outcome

let submit ?on_complete pool db req =
  let tk =
    {
      tk_req = req;
      tk_m = Mutex.create ();
      tk_c = Condition.create ();
      tk_outcome = None;
      tk_served_by = -1;
      tk_submitted_ns = Obs.Trace.now_ns ();
      tk_on_complete = on_complete;
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
        serve pool tk db)
      pool.jobs;
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

let served_by tk = tk.tk_served_by
