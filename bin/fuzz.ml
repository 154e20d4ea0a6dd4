(* Model-based stress tool.

   Runs long random operation sequences (build / insert / delete /
   query of every kind, boundary-snapped abscissas included) against
   every backend simultaneously and compares each answer with a naive
   in-memory model. Any divergence prints the seed and aborts, so a
   failure is a one-line reproducer.

   With --crash, runs the crash matrix instead: for every registered
   fault site, arm a hard crash cut at that site, run a workload until
   it fires, kill the process state there, recover from what survives
   on disk, and cross-check the recovered database against the model
   (allowing exactly the in-flight operation to differ).

   With --net, serves the database in-process over a Unix socket, arms
   one-shot faults on the socket sites, and cross-checks every remote
   answer (after the client's bounded retries) against the in-process
   oracle.

   Usage: fuzz [--rounds N] [--ops N] [--seed N] [--size N]
               [--persist] [--parallel] [--domains N] [--crash] [--net] *)

open Cmdliner
open Segdb_geom
module W = Segdb_workload.Workload
module Rng = Segdb_util.Rng
module Vs = Segdb_core.Vs_index
module Failpoint = Segdb_io.Failpoint
module Snapshot = Segdb_core.Snapshot

module Model = struct
  let create () : (int, Segment.t) Hashtbl.t = Hashtbl.create 256
  let insert t (s : Segment.t) = Hashtbl.replace t s.id s
  let delete t (s : Segment.t) = Hashtbl.remove t s.id

  let query t q =
    Hashtbl.fold
      (fun _ s acc -> if Vquery.matches q s then s.Segment.id :: acc else acc)
      t []
    |> List.sort compare
end

let backends : (string * (module Vs.S)) list =
  [
    ("naive", (module Segdb_core.Naive));
    ("rtree", (module Segdb_core.Rtree_index));
    ("solution1", (module Segdb_core.Solution1));
    ("solution2", (module Segdb_core.Solution2));
  ]

type instance = Instance : string * (module Vs.S with type t = 'a) * 'a -> instance

let run_round ~seed ~ops ~size round =
  let seed = seed + (round * 7919) in
  let rng = Rng.create seed in
  let family = Rng.int rng 5 in
  let pool_segs =
    match family with
    | 0 -> W.roads (Rng.split rng) ~n:(2 * size) ~span:200.0
    | 1 -> W.grid_city (Rng.split rng) ~n:(2 * size) ~span:200 ~max_len:30
    | 2 -> W.temporal (Rng.split rng) ~n:(2 * size) ~keys:20 ~horizon:400
    | 3 -> W.fans (Rng.split rng) ~n:(2 * size) ~centers:5 ~span:200
    | _ -> W.long_spans (Rng.split rng) ~n:(2 * size) ~span:200.0
  in
  let n0 = Array.length pool_segs / 2 in
  let initial = Array.sub pool_segs 0 n0 in
  (* inserts draw from the spare pool in generation order, x1 order or
     reversed x1 order: the ordered streams the weight rule must absorb *)
  let spare =
    let rest = Array.to_list (Array.sub pool_segs n0 (Array.length pool_segs - n0)) in
    let by_x1 = List.stable_sort (fun (a : Segment.t) (b : Segment.t) -> compare a.x1 b.x1) in
    ref (match Rng.int rng 3 with 0 -> rest | 1 -> by_x1 rest | _ -> List.rev (by_x1 rest))
  in
  let model = Model.create () in
  Array.iter (Model.insert model) initial;
  let instances =
    List.map
      (fun (name, (module M : Vs.S)) ->
        let cfg = Vs.config ~pool_blocks:16 ~block:(8 lsl Rng.int rng 3) () in
        Instance (name, (module M), M.build cfg initial))
      backends
  in
  let live = ref (Array.to_list initial) in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FUZZ FAILURE (round %d, seed %d): %s\n" round seed msg;
        exit 1)
      fmt
  in
  let random_query () =
    let x =
      if Rng.bool rng || !live = [] then Rng.float rng 220.0 -. 10.0
      else begin
        (* boundary-snapped: an actual endpoint abscissa *)
        let s = List.nth !live (Rng.int rng (List.length !live)) in
        if Rng.bool rng then s.Segment.x1 else s.Segment.x2
      end
    in
    match Rng.int rng 4 with
    | 0 -> Vquery.line ~x
    | 1 -> Vquery.ray_up ~x ~ylo:(Rng.float rng 200.0)
    | 2 -> Vquery.ray_down ~x ~yhi:(Rng.float rng 200.0)
    | _ ->
        let y = Rng.float rng 200.0 in
        Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0)
  in
  for op = 1 to ops do
    match Rng.int rng 10 with
    | 0 | 1 -> (
        (* insert a fresh segment *)
        match !spare with
        | s :: rest ->
            spare := rest;
            live := s :: !live;
            Model.insert model s;
            List.iter (fun (Instance (_, (module M), t)) -> M.insert t s) instances
        | [] -> ())
    | 2 when !live <> [] ->
        (* delete a random live segment; it goes back to the spare pool,
           so a later insert brings it back under the same id *)
        let s = List.nth !live (Rng.int rng (List.length !live)) in
        live := List.filter (fun (c : Segment.t) -> c.id <> s.Segment.id) !live;
        spare := s :: !spare;
        Model.delete model s;
        List.iter
          (fun (Instance (name, (module M), t)) ->
            if not (M.delete t s) then fail "op %d: %s delete missed id %d" op name s.Segment.id)
          instances
    | _ ->
        let q = random_query () in
        let expected = Model.query model q in
        List.iter
          (fun (Instance (name, (module M), t)) ->
            let got = Vs.query_ids (module M) t q in
            if got <> expected then
              fail "op %d: %s answered %d ids, expected %d on %s" op name (List.length got)
                (List.length expected)
                (Format.asprintf "%a" Vquery.pp q))
          instances
  done;
  (* final audit: sizes and a full line sweep *)
  List.iter
    (fun (Instance (name, (module M), t)) ->
      if M.size t <> Hashtbl.length model then
        fail "final: %s size %d vs model %d" name (M.size t) (Hashtbl.length model))
    instances

module Db = Segdb_core.Segdb
module Exec = Segdb_exec.Exec

(* Parallel round: every backend answers a random query batch three
   times — serially, via [Exec.run] on the round's own pool (the
   cooperative fan-out across [domains] participants: the caller plus
   [domains - 1] workers), and through [Exec.submit] on the same pool
   (the server's admission path) — and the answers must be identical,
   element by element. Three more batches each follow a burst of
   inserts and deletes, so the cross-check also covers indexes reshaped
   by mutation (rebuilt PSTs, split blocks) and workers whose cached
   readers outlived the writes. *)

let run_parallel_round ~seed ~ops ~size ~domains round =
  let seed = seed + (round * 31337) in
  let rng = Rng.create seed in
  let pool_segs =
    match Rng.int rng 5 with
    | 0 -> W.roads (Rng.split rng) ~n:(2 * size) ~span:200.0
    | 1 -> W.grid_city (Rng.split rng) ~n:(2 * size) ~span:200 ~max_len:30
    | 2 -> W.temporal (Rng.split rng) ~n:(2 * size) ~keys:20 ~horizon:400
    | 3 -> W.fans (Rng.split rng) ~n:(2 * size) ~centers:5 ~span:200
    | _ -> W.long_spans (Rng.split rng) ~n:(2 * size) ~span:200.0
  in
  let n0 = Array.length pool_segs / 2 in
  let initial = Array.sub pool_segs 0 n0 in
  let spare = ref (Array.to_list (Array.sub pool_segs n0 (Array.length pool_segs - n0))) in
  let live = ref (Array.to_list initial) in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FUZZ FAILURE (parallel round %d, seed %d): %s\n" round seed msg;
        exit 1)
      fmt
  in
  let block = 8 lsl Rng.int rng 3 in
  let dbs =
    List.map
      (fun (name, backend) -> (name, Db.create ~backend ~block ~pool_blocks:16 initial))
      Db.all_backends
  in
  let random_query () =
    let x =
      if Rng.bool rng || !live = [] then Rng.float rng 220.0 -. 10.0
      else begin
        let s = List.nth !live (Rng.int rng (List.length !live)) in
        if Rng.bool rng then s.Segment.x1 else s.Segment.x2
      end
    in
    match Rng.int rng 4 with
    | 0 -> Vquery.line ~x
    | 1 -> Vquery.ray_up ~x ~ylo:(Rng.float rng 200.0)
    | 2 -> Vquery.ray_down ~x ~yhi:(Rng.float rng 200.0)
    | _ ->
        let y = Rng.float rng 200.0 in
        Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0)
  in
  (* at least one worker even for [--domains 1]: the submit cross-check
     needs a domain to pick its request up *)
  let pool = Exec.create ~workers:(max 1 (domains - 1)) () in
  let cross_check label =
    let qs = Array.init (max 1 ops) (fun _ -> random_query ()) in
    List.iter
      (fun (name, db) ->
        let serial = Array.map (Db.query_ids db) qs in
        let par =
          match Exec.run pool db (Exec.request qs) ~domains with
          | Exec.Ok out, _ -> out
          | o, _ ->
              fail "%s: %s engine cut the batch short: %s" label name
                (Format.asprintf "%a" Exec.pp_outcome o)
        in
        Array.iteri
          (fun i got ->
            if got <> serial.(i) then
              fail "%s: %s parallel answer diverged from serial (%d vs %d ids) on %s" label
                name (List.length got)
                (List.length serial.(i))
                (Format.asprintf "%a" Vquery.pp qs.(i)))
          par;
        let tk = Exec.submit pool db (Exec.request qs) in
        (match Exec.await tk with
        | Exec.Ok out ->
            Array.iteri
              (fun i got ->
                if got <> serial.(i) then
                  fail "%s: %s pool answer diverged from serial (%d vs %d ids) on %s" label
                    name (List.length got)
                    (List.length serial.(i))
                    (Format.asprintf "%a" Vquery.pp qs.(i)))
              out
        | o -> fail "%s: %s pool refused the batch: %s" label name
                 (Format.asprintf "%a" Exec.pp_outcome o)))
      dbs
  in
  Fun.protect ~finally:(fun () -> Exec.shutdown pool) @@ fun () ->
  cross_check "fresh build";
  (* reshape the indexes, then cross-check again: the pool's workers
     keep their cached readers across every burst *)
  for burst = 1 to 3 do
    for _ = 1 to max 1 (size / 4) do
      match !spare with
      | s :: rest ->
          spare := rest;
          live := s :: !live;
          List.iter (fun (_, db) -> Db.insert db s) dbs
      | [] -> ()
    done;
    for _ = 1 to max 1 (size / 8) do
      match !live with
      | [] -> ()
      | _ ->
          let s = List.nth !live (Rng.int rng (List.length !live)) in
          live := List.filter (fun (c : Segment.t) -> c.id <> s.Segment.id) !live;
          List.iter
            (fun (name, db) ->
              if not (Db.delete db s) then fail "%s delete missed id %d" name s.Segment.id)
            dbs
    done;
    cross_check (Printf.sprintf "after mutation %d" burst)
  done

(* Persistence round: random ops against the facade with a WAL attached,
   snapshots at random points, then a simulated crash — the db is dropped
   and reopened from snapshot + log. Answers before and after the reopen
   must match each other and the model; both open paths (marshaled image
   and rebuild) are exercised.

   All scratch files live under one dedicated temp root, removed on
   exit via [at_exit] — including the failure path, which exits with
   status 1 after printing the reproducer. *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_root =
  lazy
    (let dir = Filename.temp_file "segdb_fuzz" ".d" in
     Sys.remove dir;
     Unix.mkdir dir 0o700;
     at_exit (fun () -> try remove_tree dir with Unix.Unix_error _ | Sys_error _ -> ());
     dir)

let run_persist_round ~seed ~ops ~size round =
  let seed = seed + (round * 104729) in
  let rng = Rng.create seed in
  let backend = Rng.pick rng [| `Naive; `Rtree; `Solution1; `Solution2 |] in
  let pool_segs = W.roads (Rng.split rng) ~n:(2 * size) ~span:200.0 in
  let n0 = Array.length pool_segs / 2 in
  let initial = Array.sub pool_segs 0 n0 in
  let spare = ref (Array.to_list (Array.sub pool_segs n0 (Array.length pool_segs - n0))) in
  let dir = Filename.concat (Lazy.force scratch_root) (Printf.sprintf "round%d" round) in
  Unix.mkdir dir 0o700;
  let snap = Filename.concat dir "db.snap" and wal = Filename.concat dir "db.wal" in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FUZZ FAILURE (persist round %d, seed %d): %s\n" round seed msg;
        exit 1)
      fmt
  in
  let model = Model.create () in
  Array.iter (Model.insert model) initial;
  let db = Db.create ~backend ~block:(8 lsl Rng.int rng 3) initial in
  Db.save db snap;
  ignore (Db.attach_wal ~sync:false db wal);
  let live = ref (Array.to_list initial) in
  for op = 1 to ops do
    match Rng.int rng 10 with
    | 0 | 1 | 2 -> (
        match !spare with
        | s :: rest ->
            spare := rest;
            live := s :: !live;
            Model.insert model s;
            Db.insert db s
        | [] -> ())
    | 3 when !live <> [] ->
        let s = List.nth !live (Rng.int rng (List.length !live)) in
        live := List.filter (fun (c : Segment.t) -> c.id <> s.Segment.id) !live;
        Model.delete model s;
        if not (Db.delete db s) then fail "op %d: delete missed id %d" op s.Segment.id
    | 4 when Rng.int rng 8 = 0 ->
        (* occasional checkpoint: snapshot + truncate the log *)
        Db.checkpoint db snap
    | _ ->
        let x = Rng.float rng 220.0 -. 10.0 in
        let y = Rng.float rng 200.0 in
        let q = Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0) in
        let got = List.sort compare (Db.query_ids db q) in
        if got <> Model.query model q then
          fail "op %d: live db diverged from model on %s" op
            (Format.asprintf "%a" Vquery.pp q)
  done;
  let queries = Array.init 30 (fun _ ->
      let x = Rng.float rng 220.0 -. 10.0 in
      let y = Rng.float rng 200.0 in
      Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0))
  in
  let before = Array.map (fun q -> List.sort compare (Db.query_ids db q)) queries in
  Db.detach_wal db
  (* crash: the live index is dropped; only snapshot + log survive *);
  let use_image = Rng.bool rng in
  let db2, _ = Db.open_db_mode ~use_image snap in
  ignore (Db.attach_wal ~sync:false db2 wal);
  if Db.size db2 <> Hashtbl.length model then
    fail "reopen (%s): size %d vs model %d"
      (if use_image then "image" else "rebuild")
      (Db.size db2) (Hashtbl.length model);
  Array.iteri
    (fun i q ->
      let after = List.sort compare (Db.query_ids db2 q) in
      if after <> before.(i) then
        fail "reopen (%s): answers differ on %s"
          (if use_image then "image" else "rebuild")
          (Format.asprintf "%a" Vquery.pp q);
      if after <> Model.query model q then
        fail "reopen: recovered db diverged from model on %s"
          (Format.asprintf "%a" Vquery.pp q))
    queries;
  Db.detach_wal db2;
  (* eager per-round cleanup so long runs don't accumulate scratch;
     the at_exit sweep of the root covers every early-exit path *)
  remove_tree dir

(* ---------------- crash matrix ----------------

   One round per (round, site): a workload runs with a hard crash cut
   armed at the site; when it fires, the in-memory state is abandoned
   exactly as a dying process would leave it, and recovery must
   reconstruct the model — modulo the single operation that was in
   flight, which may legitimately be present (logged before the cut)
   or absent (cut before the log write). *)

let ids_of_model model =
  Hashtbl.fold (fun id _ acc -> id :: acc) model [] |> List.sort compare

let site_dir site round =
  let dir =
    Filename.concat (Lazy.force scratch_root)
      (Printf.sprintf "crash%d_%s" round
         (String.map (function '.' -> '_' | c -> c) site))
  in
  Unix.mkdir dir 0o700;
  dir

(* Sites on the Segdb facade path: WAL + snapshot + query. The round
   cycles inserts, deletes, queries and checkpoints so every one of
   these sites is exercised within a few iterations. *)
let run_crash_db_round ~seed ~ops ~size ~site round =
  let seed = seed + (round * 524287) + (Hashtbl.hash site mod 65536) in
  let rng = Rng.create seed in
  let backend = Rng.pick rng [| `Naive; `Rtree; `Solution1; `Solution2 |] in
  let pool_segs = W.roads (Rng.split rng) ~n:(2 * size) ~span:200.0 in
  let n0 = Array.length pool_segs / 2 in
  let initial = Array.sub pool_segs 0 n0 in
  let spare = ref (Array.to_list (Array.sub pool_segs n0 (Array.length pool_segs - n0))) in
  let dir = site_dir site round in
  let snap = Filename.concat dir "db.snap" and wal = Filename.concat dir "db.wal" in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FUZZ FAILURE (crash round %d, site %s, seed %d): %s\n" round site
          seed msg;
        exit 1)
      fmt
  in
  let model = Model.create () in
  Array.iter (Model.insert model) initial;
  let db = Db.create ~backend ~block:(8 lsl Rng.int rng 3) initial in
  Db.save db snap;
  ignore (Db.attach_wal ~sync:true db wal);
  let live = ref (Array.to_list initial) in
  (* torn writes are a meaningful crash shape only at write sites *)
  let action =
    if (site = "wal.append" || site = "snapshot.write") && Rng.bool rng then
      Failpoint.Torn
    else Failpoint.Crash
  in
  Failpoint.arm ~seed [ (site, Failpoint.plan ~at:(1 + Rng.int rng 4) action) ];
  let inflight = ref None in
  let crashed = ref false in
  (try
     let op = ref 0 in
     while (not !crashed) && !op < ops do
       incr op;
       match !op mod 5 with
       | 1 | 2 -> (
           match !spare with
           | s :: rest ->
               spare := rest;
               inflight := Some (`Ins s);
               Db.insert db s;
               inflight := None;
               live := s :: !live;
               Model.insert model s
           | [] -> ())
       | 3 -> (
           match !live with
           | [] -> ()
           | l ->
               let s = List.nth l (Rng.int rng (List.length l)) in
               inflight := Some (`Del s);
               ignore (Db.delete db s);
               inflight := None;
               live := List.filter (fun (c : Segment.t) -> c.id <> s.Segment.id) l;
               Model.delete model s)
       | 4 ->
           inflight := None;
           Db.checkpoint db snap
       | _ ->
           let x = Rng.float rng 220.0 -. 10.0 in
           let y = Rng.float rng 200.0 in
           ignore (Db.query_ids db (Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0)))
     done
   with Failpoint.Injected_crash _ -> crashed := true);
  Failpoint.disarm ();
  if not !crashed then fail "site never fired in %d operations" ops;
  (* the process is "dead": drop the handles without any clean-up write *)
  (try Db.detach_wal db with _ -> ());
  (* recovery: snapshot + WAL replay *)
  let use_image = Rng.bool rng in
  let db2, _ = Db.open_db_mode ~use_image snap in
  ignore (Db.attach_wal ~sync:false db2 wal);
  let got =
    Db.segments db2 |> Array.to_list |> List.map (fun (s : Segment.t) -> s.Segment.id)
  in
  let base = ids_of_model model in
  if got = base then ()
  else begin
    (* the recovered state may include exactly the in-flight operation:
       logged-then-cut is as legitimate as cut-before-log *)
    match !inflight with
    | Some (`Ins s) when got = List.sort compare (s.Segment.id :: base) ->
        Model.insert model s
    | Some (`Del s) when got = List.filter (fun id -> id <> s.Segment.id) base ->
        Model.delete model s
    | _ ->
        fail "recovered id set (%d ids) matches neither the model (%d) nor model ± \
              in-flight op"
          (List.length got) (List.length base)
  end;
  for _ = 1 to 30 do
    let x = Rng.float rng 220.0 -. 10.0 in
    let y = Rng.float rng 200.0 in
    let q = Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0) in
    let after = List.sort compare (Db.query_ids db2 q) in
    if after <> Model.query model q then
      fail "recovered db diverged from model on %s" (Format.asprintf "%a" Vquery.pp q)
  done;
  (match Db.validate ~queries:5 db2 with
  | [] -> ()
  | f :: _ -> fail "recovered db fails validation: %s" f);
  (* checkpointing the recovered state must produce a clean snapshot *)
  let snap2 = Filename.concat dir "recovered.snap" in
  Db.checkpoint db2 snap2;
  (match Snapshot.salvage ~path:snap2 with
  | [], Some _ -> ()
  | fs, _ -> fail "checkpointed recovery has findings: %s" (String.concat "; " fs));
  Db.detach_wal db2;
  remove_tree dir

(* ---------------- network round ----------------

   The database is served in-process over a Unix socket and a client
   cross-checks every remote answer against the in-process oracle —
   while one-shot faults are armed on the socket sites ([net.read],
   [net.write]). One-shot plans keep every fault survivable by
   construction: the damaged exchange fails once (a torn frame, a
   flipped bit caught by the CRC, a short transfer, a transient EIO)
   and the client's bounded retry must then land the same answer the
   in-process query gives. Crash actions are excluded: on a socket
   site they model process death, which is the crash matrix's job. *)

module Net_server = Segdb_net.Server
module Net_client = Segdb_net.Client

let net_actions = [| Failpoint.Eio; Failpoint.Short; Failpoint.Bit_flip; Failpoint.Torn |]

let run_net_round ~seed ~ops ~size round =
  let seed = seed + (round * 49157) in
  let rng = Rng.create seed in
  let backend = Rng.pick rng [| `Naive; `Rtree; `Solution1; `Solution2 |] in
  let segs = W.roads (Rng.split rng) ~n:size ~span:200.0 in
  let db = Db.create ~backend ~block:(8 lsl Rng.int rng 3) segs in
  let dir = Filename.concat (Lazy.force scratch_root) (Printf.sprintf "net%d" round) in
  Unix.mkdir dir 0o700;
  let sock = Filename.concat dir "fuzz.sock" in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FUZZ FAILURE (net round %d, seed %d): %s\n" round seed msg;
        exit 1)
      fmt
  in
  let srv = Net_server.create ~domains:2 ~queue_depth:64 ~db (Net_server.Unix_path sock) in
  Net_server.start srv;
  let c = Net_client.connect ~retries:8 ~backoff_ms:2 (Net_server.Unix_path sock) in
  let random_query () =
    let x = Rng.float rng 220.0 -. 10.0 in
    match Rng.int rng 4 with
    | 0 -> Vquery.line ~x
    | 1 -> Vquery.ray_up ~x ~ylo:(Rng.float rng 200.0)
    | 2 -> Vquery.ray_down ~x ~yhi:(Rng.float rng 200.0)
    | _ ->
        let y = Rng.float rng 200.0 in
        Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0)
  in
  let check_batch qs =
    let expected = Array.map (fun q -> List.sort compare (Db.query_ids db q)) qs in
    let got = Net_client.batch c qs in
    if got.Db.Degraded.value <> expected then
      fail "remote batch of %d diverged from the in-process answers" (Array.length qs)
  in
  let bursts = max 1 (ops / 10) in
  (* one burst also sends a batch whose frame is larger than the
     server's 64 KiB receive buffer (24 bytes a query) *)
  let big_burst = 1 + Rng.int rng bursts in
  for burst = 1 to bursts do
    let plans =
      List.filter_map
        (fun site ->
          if Rng.bool rng then
            Some (site, Failpoint.plan ~at:(1 + Rng.int rng 6) (Rng.pick rng net_actions))
          else None)
        [ "net.read"; "net.write" ]
    in
    Failpoint.arm ~seed:(seed + burst) plans;
    if burst = big_burst then
      check_batch (Array.init (2_800 + Rng.int rng 1_000) (fun _ -> random_query ()));
    for _ = 1 to 5 do
      match Rng.int rng 3 with
      | 0 ->
          let q = random_query () in
          let expected = List.sort compare (Db.query_ids db q) in
          let got = Net_client.query c q in
          if not got.Db.Degraded.complete then
            fail "query reported degraded on a healthy store (%s)"
              (String.concat "; " got.Db.Degraded.faults);
          if got.Db.Degraded.value <> expected then
            fail "remote answer diverged (%d vs %d ids) on %s"
              (List.length got.Db.Degraded.value)
              (List.length expected)
              (Format.asprintf "%a" Vquery.pp q)
      | 1 ->
          let q = random_query () in
          (* a count is the length of a query answer *)
          let got = List.length (Net_client.query c q).Db.Degraded.value
          and expected = Db.count db q in
          if got <> expected then
            fail "remote count %d vs %d on %s" got expected
              (Format.asprintf "%a" Vquery.pp q)
      | _ -> check_batch (Array.init (1 + Rng.int rng 8) (fun _ -> random_query ()))
    done;
    Failpoint.disarm ()
  done;
  Net_client.shutdown c;
  Net_client.close c;
  Net_server.wait srv;
  remove_tree dir

(* ---------------- replication soak ----------------

   A live primary/replica pair over Unix sockets, a model mirror of
   every acknowledged write, one-shot socket faults armed while writes
   stream (exercising client retry and the tail's reconnect/resync),
   then a partition event. Even rounds kill the primary mid-write and
   promote; odd rounds promote while the primary is still alive (split
   brain) and make a fresh node rejoin the new epoch, discarding the
   divergent history. Either way: the promoted state must equal the
   model up to the single in-flight operation, must validate clean,
   and stale-epoch frames must be fenced on reconnect. *)

module Net_wire = Segdb_net.Wire
module Net_repl = Segdb_net.Replication

let ids_of_db db =
  Db.segments db |> Array.to_list
  |> List.map (fun (s : Segment.t) -> s.Segment.id)
  |> List.sort compare

let run_replica_round ~seed ~ops ~size round =
  let seed = seed + (round * 999983) in
  let rng = Rng.create seed in
  let backend = Rng.pick rng [| `Naive; `Rtree; `Solution1; `Solution2 |] in
  let pool_segs = W.roads (Rng.split rng) ~n:(2 * size) ~span:200.0 in
  let n0 = Array.length pool_segs / 2 in
  let initial = Array.sub pool_segs 0 n0 in
  let spare = ref (Array.to_list (Array.sub pool_segs n0 (Array.length pool_segs - n0))) in
  let dir = Filename.concat (Lazy.force scratch_root) (Printf.sprintf "repl%d" round) in
  Unix.mkdir dir 0o700;
  let psock = Filename.concat dir "p.sock" and rsock = Filename.concat dir "r.sock" in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FUZZ FAILURE (replica round %d, seed %d): %s\n" round seed msg;
        exit 1)
      fmt
  in
  let model = Model.create () in
  Array.iter (Model.insert model) initial;
  let live = ref (Array.to_list initial) in
  let block = 8 lsl Rng.int rng 3 in
  let pdb = Db.create ~backend ~block initial in
  (* the replica starts empty: only the subscribe-time snapshot resync
     can explain it converging *)
  let rdb = Db.create ~backend ~block [||] in
  let primary = Net_server.create ~domains:2 ~db:pdb (Net_server.Unix_path psock) in
  Net_server.start primary;
  let replica =
    Net_server.create ~domains:2
      ~replica_of:(Net_server.Unix_path psock)
      ~db:rdb (Net_server.Unix_path rsock)
  in
  Net_server.start replica;
  let c = Net_client.connect ~retries:10 ~backoff_ms:2 (Net_server.Unix_path psock) in
  let rc = Net_client.connect ~retries:10 ~backoff_ms:2 (Net_server.Unix_path rsock) in
  let last_lag = ref "" in
  let wait_for ?(timeout_s = 20.0) msg pred =
    let deadline = Unix.gettimeofday () +. timeout_s in
    while not (pred ()) do
      if Unix.gettimeofday () > deadline then
        fail "timed out waiting for %s (%s)" msg !last_lag;
      Unix.sleepf 0.005
    done
  in
  let replica_synced () =
    let st = Net_client.repl_status rc in
    let prepl = Net_server.replication primary in
    let want_lsn = Net_repl.lsn prepl and want_epoch = Net_repl.epoch prepl in
    let ok =
      (* lsn equality alone is vacuous before the first write (both
         report 0); epoch adoption proves the snapshot resync landed *)
      st.Net_wire.lsn = want_lsn && st.Net_wire.epoch = want_epoch
    in
    if not ok then
      last_lag := Printf.sprintf
          "replica role=%s epoch=%d lsn=%d, primary epoch=%d lsn=%d"
          st.Net_wire.role st.Net_wire.epoch st.Net_wire.lsn want_epoch want_lsn;
    ok
  in
  let random_query () =
    let x = Rng.float rng 220.0 -. 10.0 in
    let y = Rng.float rng 200.0 in
    Vquery.segment ~x ~ylo:y ~yhi:(y +. Rng.float rng 60.0)
  in
  let cross_check_replica label =
    for _ = 1 to 5 do
      let q = random_query () in
      let got = Net_client.query rc q in
      if not got.Db.Degraded.complete then
        fail "%s: replica answered degraded (%s)" label
          (String.concat "; " got.Db.Degraded.faults);
      if got.Db.Degraded.value <> Model.query model q then
        fail "%s: replica diverged from the model on %s" label
          (Format.asprintf "%a" Vquery.pp q)
    done
  in
  (* stabbing query through [s]'s x-midpoint: present iff [s.id] answers *)
  let stored client (s : Segment.t) =
    let x = (s.Segment.x1 +. s.Segment.x2) /. 2.0 in
    let ylo = Float.min s.Segment.y1 s.Segment.y2 -. 1.0 in
    let yhi = Float.max s.Segment.y1 s.Segment.y2 +. 1.0 in
    let got = Net_client.query client (Vquery.segment ~x ~ylo ~yhi) in
    List.mem s.Segment.id got.Db.Degraded.value
  in
  let apply_write client =
    if (Rng.int rng 3 > 0 || !live = []) && !spare <> [] then begin
      match !spare with
      | [] -> ()
      | s :: rest ->
          spare := rest;
          let _, changed = Net_client.insert client s in
          (* under injected faults the client retries: a lost response
             means the first attempt may already have committed, so
             [changed = false] is only a failure if the segment is
             genuinely absent *)
          if (not changed) && not (stored client s) then
            fail "insert of fresh id %d reported unchanged" s.Segment.id;
          Model.insert model s;
          live := s :: !live
    end
    else if !live <> [] then begin
      let s = List.nth !live (Rng.int rng (List.length !live)) in
      let _, changed = Net_client.delete client s in
      if (not changed) && stored client s then
        fail "delete of live id %d reported unchanged" s.Segment.id;
      Model.delete model s;
      live := List.filter (fun (l : Segment.t) -> l.Segment.id <> s.Segment.id) !live
    end
  in
  (* steady state under socket chaos: bursts of writes with one-shot
     faults armed; every burst ends at a sync barrier + cross-check *)
  let bursts = max 1 (ops / 10) in
  wait_for "initial snapshot catch-up" replica_synced;
  cross_check_replica "after catch-up";
  for burst = 1 to bursts do
    let plans =
      List.filter_map
        (fun site ->
          if Rng.bool rng then
            Some (site, Failpoint.plan ~at:(1 + Rng.int rng 6) (Rng.pick rng net_actions))
          else None)
        [ "net.read"; "net.write" ]
    in
    Failpoint.arm ~seed:(seed + burst) plans;
    for _ = 1 to 6 do
      apply_write c
    done;
    Failpoint.disarm ();
    wait_for "burst replication" replica_synced;
    cross_check_replica (Printf.sprintf "burst %d" burst)
  done;
  (* ---- the partition event ---- *)
  let kill_flavor = round mod 2 = 0 in
  let inflight = ref None in
  if kill_flavor then begin
    (* one write is left in flight when the primary dies abruptly: it
       may or may not have been committed and shipped *)
    (match !spare with
    | s :: rest ->
        spare := rest;
        inflight := Some s;
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX psock);
        Net_wire.send fd (Net_wire.encode_request (Net_wire.Insert s));
        Net_server.kill primary;
        (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    | [] -> Net_server.kill primary);
    Net_client.close c;
    Net_server.wait primary
  end;
  let epoch = Net_client.promote rc in
  if epoch < 2 then fail "promotion did not advance the epoch (got %d)" epoch;
  (* promote flips the role, which makes the tail's session loop exit
     after its current recv tick; give it that tick so no apply races
     the direct reads below *)
  Unix.sleepf 0.5;
  (* the promoted state equals the model, up to the in-flight write *)
  let got = ids_of_db rdb in
  let base = ids_of_model model in
  (if got = base then ()
   else
     match !inflight with
     | Some s when got = List.sort compare (s.Segment.id :: base) ->
         Model.insert model s;
         live := s :: !live
     | _ ->
         let diff a b = List.filter (fun x -> not (List.mem x b)) a in
         fail
           "promoted id set (%d ids) matches neither the model (%d) nor model + \
            in-flight; primary has %d; db-only: [%s]; model-only: [%s]"
           (List.length got) (List.length base)
           (List.length (ids_of_db pdb))
           (String.concat "," (List.map string_of_int (diff got base)))
           (String.concat "," (List.map string_of_int (diff base got))));
  (match Db.validate ~queries:5 rdb with
  | [] -> ()
  | f :: _ -> fail "promoted db fails validation: %s" f);
  (* fencing on reconnect: frames carrying a stale or impossible epoch
     are refused by the promoted node *)
  let expect_fenced what req =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_UNIX rsock);
        Net_wire.send fd (Net_wire.encode_request req);
        match Net_wire.recv ~timeout:10.0 fd with
        | Result.Ok payload -> (
            match Net_wire.decode_response payload with
            | Result.Ok (Net_wire.Error (Net_wire.Fenced, _)) -> ()
            | Result.Ok _ | Result.Error _ -> fail "%s was not fenced" what)
        | Result.Error e ->
            fail "%s: transport error %s" what (Net_wire.protocol_error_to_string e))
  in
  expect_fenced "stale-epoch ack (revived primary)"
    (Net_wire.Repl_ack { epoch = 1; lsn = 0 });
  expect_fenced "subscriber from the future"
    (Net_wire.Repl_subscribe { epoch = epoch + 7; from_lsn = 0 });
  (* the promoted node serves writes at the new epoch *)
  for _ = 1 to 5 do
    apply_write rc
  done;
  for _ = 1 to 5 do
    let q = random_query () in
    let got = Net_client.query rc q in
    if got.Db.Degraded.value <> Model.query model q then
      fail "promoted node diverged from the model after new writes"
  done;
  if not kill_flavor then begin
    (* split brain: the old primary is still alive at epoch 1 and even
       accepts writes — that divergent history must be discarded when
       a node rejoins the new epoch *)
    (match !spare with
    | s :: rest ->
        spare := rest;
        ignore (Net_client.insert c s) (* NOT in the model: wrong side *)
    | [] -> ());
    let tsock = Filename.concat dir "t.sock" in
    (* the rejoining node starts from the stale primary's divergent
       content — snapshot resync must overwrite it *)
    let tdb = Db.create ~backend ~block (Db.segments pdb) in
    let third =
      Net_server.create ~domains:1
        ~replica_of:(Net_server.Unix_path rsock)
        ~db:tdb (Net_server.Unix_path tsock)
    in
    Net_server.start third;
    wait_for "rejoin at the new epoch" (fun () ->
        ids_of_db tdb = ids_of_model model
        && (let tc = Net_client.connect (Net_server.Unix_path tsock) in
            Fun.protect
              ~finally:(fun () -> Net_client.close tc)
              (fun () -> (Net_client.repl_status tc).Net_wire.epoch = epoch)));
    (match Db.validate ~queries:5 tdb with
    | [] -> ()
    | f :: _ -> fail "rejoined db fails validation: %s" f);
    Net_server.stop third;
    Net_server.wait third;
    Net_client.close c;
    Net_server.stop primary;
    Net_server.wait primary
  end;
  Net_client.close rc;
  Net_server.stop replica;
  Net_server.wait replica;
  remove_tree dir

(* the socket sites see no traffic in a crash round (nothing serves
   here), so demanding they fire would always fail; their fault
   coverage is --net's one-shot plans *)
let socket_sites = [ "net.read"; "net.write" ]

let run_crash_matrix ~rounds ~ops ~seed ~size =
  let sites =
    List.filter (fun s -> not (List.mem s socket_sites)) (Failpoint.registered ())
  in
  if sites = [] then begin
    Printf.eprintf "fuzz --crash: no fault sites registered\n";
    exit 1
  end;
  for round = 1 to rounds do
    List.iter (fun site -> run_crash_db_round ~seed ~ops ~size ~site round) sites;
    if round mod 10 = 0 then Printf.printf "round %d/%d ok\n%!" round rounds
  done;
  Printf.printf
    "fuzz: crash matrix: %d sites x %d rounds (%s); every recovery matched the model \
     and scrubbed clean\n"
    (List.length sites) rounds (String.concat ", " sites)

let fuzz rounds ops seed size persist parallel crash net replica domains =
  Segdb_obs.Log.configure_from_env ();
  if crash then begin
    run_crash_matrix ~rounds ~ops ~seed ~size;
    0
  end
  else begin
  for round = 1 to rounds do
    if replica then run_replica_round ~seed ~ops ~size round
    else if net then run_net_round ~seed ~ops ~size round
    else if parallel then run_parallel_round ~seed ~ops ~size ~domains round
    else if persist then run_persist_round ~seed ~ops ~size round
    else run_round ~seed ~ops ~size round;
    if round mod 10 = 0 then Printf.printf "round %d/%d ok\n%!" round rounds
  done;
  if replica then
    Printf.printf
      "fuzz: %d replica rounds (kill+promote / split-brain alternating) under socket \
       faults; promoted state = model ± in-flight, stale epochs fenced, rejoins \
       converged\n"
      rounds
  else if net then
    Printf.printf
      "fuzz: %d net rounds x ~%d requests under socket faults, every remote answer \
       matched the in-process oracle\n"
      rounds (ops / 10 * 5)
  else if parallel then
    Printf.printf
      "fuzz: %d parallel rounds x %d queries, %d-domain answers identical to serial\n" rounds
      ops domains
  else if persist then
    Printf.printf
      "fuzz: %d persist rounds x %d ops, answers stable across save/open/replay\n" rounds ops
  else
    Printf.printf "fuzz: %d rounds x %d ops, all backends agree with the model\n" rounds ops;
  0
  end

let rounds_t = Arg.(value & opt int 50 & info [ "rounds" ] ~docv:"N" ~doc:"Rounds.")
let ops_t = Arg.(value & opt int 300 & info [ "ops" ] ~docv:"N" ~doc:"Operations per round.")
let seed_t = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.")
let size_t = Arg.(value & opt int 120 & info [ "size" ] ~docv:"N" ~doc:"Initial segments.")

let persist_t =
  Arg.(
    value & flag
    & info [ "persist" ]
        ~doc:
          "Save/open/replay round-trips: random ops under a WAL with random checkpoints, \
           then a simulated crash and recovery; query answers must be identical before \
           and after the reopen.")

let parallel_t =
  Arg.(
    value & flag
    & info [ "parallel" ]
        ~doc:
          "Parallel-read cross-checks: every backend answers random query batches through \
           $(b,Exec.run) on the round's own pool and through $(b,Exec.submit), and the \
           answers must match the serial ones exactly, both on fresh builds and after \
           mutation.")

let crash_t =
  Arg.(
    value & flag
    & info [ "crash" ]
        ~doc:
          "Crash matrix: for every registered fault site, arm a hard crash cut, run a \
           workload until it fires, abandon the in-memory state, recover from disk and \
           cross-check against the model (the single in-flight operation may be present \
           or absent; anything else fails). Recovered state must validate and scrub \
           clean.")

let net_t =
  Arg.(
    value & flag
    & info [ "net" ]
        ~doc:
          "Network rounds: serve the database in-process over a Unix socket, arm \
           one-shot faults on the socket sites ($(i,net.read), $(i,net.write): torn \
           frames, flipped bits, short transfers, transient EIO), and cross-check every \
           remote answer — after the client's bounded retries — against the in-process \
           oracle.")

let replica_t =
  Arg.(
    value & flag
    & info [ "replica" ]
        ~doc:
          "Replication soak: a primary/replica pair over Unix sockets with one-shot \
           socket faults armed while writes stream. Even rounds kill the primary with \
           a write in flight and promote the replica; odd rounds promote while the \
           primary is alive (split brain) and make a fresh node rejoin the new epoch. \
           The promoted state must equal the model up to the in-flight operation, \
           validate clean, and fence stale-epoch frames.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "%S: expected an integer >= 1" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_t =
  Arg.(
    value & opt positive_int 4
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Domains answering each $(b,--parallel) batch: the caller plus N-1 pool workers.")

let cmd =
  let doc = "model-based stress test across all index backends" in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      const fuzz $ rounds_t $ ops_t $ seed_t $ size_t $ persist_t $ parallel_t $ crash_t
      $ net_t $ replica_t $ domains_t)

let () =
  Failpoint.arm_from_env ();
  exit (Cmd.eval' cmd)
