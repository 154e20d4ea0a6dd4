open Segdb_io
open Segdb_geom

type backend = [ `Naive | `Rtree | `Solution1 | `Solution2 ]

type pack = Pack : (module Vs_index.S with type t = 'a) * 'a -> pack

type op = Op_insert of Segment.t | Op_delete of Segment.t

type t = {
  cfg : Vs_index.config;
  backend : backend;
  pack : pack;
  mutable wal : Wal.t option;
  ids : (int, Segment.t) Hashtbl.t;
      (* the live segments by id, the one id→segment map: indexes
         report ids, and this table turns them back into segments. It
         is also the duplicate-insert guard, which must not depend on
         the backend (naive/rtree accept duplicates, solution1/2 refuse
         them), or replayed and retried records would double-apply on
         some backends only *)
  query_span : string;
      (* the root span's phase, built once: a trace ring keeps a
         pointer to it, and a fresh string per query would be promoted *)
}

(* Refuses repeated ids on every backend, so the table and the index
   hold the same segments. *)
let seed_ids segs =
  let h = Hashtbl.create (max 16 (Array.length segs)) in
  Array.iter (fun (s : Segment.t) -> Hashtbl.replace h s.Segment.id s) segs;
  if Hashtbl.length h <> Array.length segs then invalid_arg "Segdb.create: duplicate segment ids";
  h

let build_pack (cfg : Vs_index.config) backend segs =
  match backend with
  | `Naive -> Pack ((module Naive), Naive.build cfg segs)
  | `Rtree -> Pack ((module Rtree_index), Rtree_index.build cfg segs)
  | `Solution1 -> Pack ((module Solution1), Solution1.build cfg segs)
  | `Solution2 -> Pack ((module Solution2), Solution2.build cfg segs)

let name_of (Pack ((module M), _)) = M.name

let make cfg backend pack ids =
  let query_span = "query." ^ name_of pack in
  { cfg; backend; pack; wal = None; ids; query_span }

let create ?(backend = `Solution2) ?(block = 64) ?(pool_blocks = 64) segs =
  let ids = seed_ids segs in
  let cfg = Vs_index.config ~pool_blocks ~block () in
  make cfg backend (build_pack cfg backend segs) ids

let of_segments ?backend ?block ?pool_blocks polylines =
  let acc = ref [] in
  let id = ref 0 in
  List.iter
    (fun points ->
      let rec go = function
        | a :: (b :: _ as rest) ->
            acc := Segment.make ~id:!id a b :: !acc;
            incr id;
            go rest
        | _ -> ()
      in
      go points)
    polylines;
  create ?backend ?block ?pool_blocks (Array.of_list (List.rev !acc))

(* ---------------- WAL records ---------------- *)

let op_codec : op Codec.t =
  {
    write =
      (fun b -> function
        | Op_insert s ->
            Codec.W.u8 b 1;
            Seg_file.codec.write b s
        | Op_delete s ->
            Codec.W.u8 b 2;
            Seg_file.codec.write b s);
    read =
      (fun r ->
        match Codec.R.u8 r with
        | 1 -> Op_insert (Seg_file.codec.read r)
        | 2 -> Op_delete (Seg_file.codec.read r)
        | tag -> raise (Codec.Corrupt (Printf.sprintf "unknown WAL op tag %d" tag)));
  }

let encode_op op = Codec.encode op_codec op

let decode_op payload =
  match Codec.decode op_codec payload with
  | op -> Some op
  | exception Codec.Corrupt _ -> None

let log_op t op =
  match t.wal with None -> () | Some w -> Wal.append w (Codec.encode op_codec op)

let apply_insert t s =
  if Hashtbl.mem t.ids s.Segment.id then
    invalid_arg "Segdb.insert: duplicate segment id";
  let (Pack ((module M), v)) = t.pack in
  M.insert v s;
  Hashtbl.replace t.ids s.Segment.id s

let apply_delete t s =
  let (Pack ((module M), v)) = t.pack in
  let hit = M.delete v s in
  if hit then Hashtbl.remove t.ids s.Segment.id;
  hit

(* Replay is idempotent where the index is not: a record whose effect is
   already present (the crash happened between the append and the apply
   of a later record, or the log overlaps a snapshot) must not abort
   recovery. *)
let apply_op t = function
  | Op_insert s -> ( try apply_insert t s with Invalid_argument _ -> ())
  | Op_delete s -> ignore (apply_delete t s)

let insert t s =
  (* the record is durable before the index is touched: a crash between
     the two replays the insert on reopen *)
  log_op t (Op_insert s);
  apply_insert t s

let delete t s =
  log_op t (Op_delete s);
  apply_delete t s

(* [insert]/[delete] with replay semantics: the op is logged like a
   local mutation but applied idempotently, so a replayed or replicated
   record that already took effect is a no-op instead of an error.
   Returns whether the index changed. *)
let commit t op =
  log_op t op;
  match op with
  | Op_insert s -> ( try apply_insert t s; true with Invalid_argument _ -> false)
  | Op_delete s -> apply_delete t s

(* ---------------- queries ---------------- *)

let backend_name t = name_of t.pack

(* The query path's own fault site: index blocks live in memory, so
   queries have no syscalls of their own to inject into — this gives
   the degraded-result machinery a first-class fault source. One
   [Atomic.get] per query while disarmed. *)
let sp_query = Failpoint.site "segdb.query"

let fire_query () =
  match Failpoint.fire sp_query with
  | None -> ()
  | Some Failpoint.Crash -> raise (Failpoint.Injected_crash "segdb.query")
  | Some _ -> raise (Unix.Unix_error (Unix.EIO, "segdb.query", "injected"))

let query_iter t q ~f =
  fire_query ();
  let (Pack ((module M), v)) = t.pack in
  if Segdb_obs.Control.enabled () then
    Probe.span t.cfg.stats t.query_span (fun () -> M.query v q ~f)
  else M.query v q ~f

(* The answer in reporting order, each id mapped through [seg]. *)
let query_map t q seg =
  let acc = ref [] in
  query_iter t q ~f:(fun id -> acc := seg id :: !acc);
  List.rev !acc

let query t q = query_map t q (Hashtbl.find t.ids)

(* ---------------- degraded results ---------------- *)

module Degraded = struct
  type 'a t = { value : 'a; complete : bool; faults : string list }

  let ok value = { value; complete = true; faults = [] }
  let partial value faults = { value; complete = false; faults }

  let pp pp_v ppf t =
    if t.complete then Format.fprintf ppf "@[<h>%a@]" pp_v t.value
    else
      Format.fprintf ppf "@[<v>%a@,degraded: %a@]" pp_v t.value
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_string)
        t.faults
end

let query_safe t q =
  let acc = ref [] in
  let finish () = List.sort compare !acc in
  try
    query_iter t q ~f:(fun id -> acc := id :: !acc);
    Degraded.ok (finish ())
  with
  | Codec.Corrupt m -> Degraded.partial (finish ()) [ "undecodable block: " ^ m ]
  | Unix.Unix_error (e, op, _) ->
      Degraded.partial (finish ())
        [ Printf.sprintf "%s: %s" op (Unix.error_message e) ]

let query_ids t q =
  let acc = ref [] in
  query_iter t q ~f:(fun id -> acc := id :: !acc);
  List.sort compare !acc

let count t q =
  let n = ref 0 in
  query_iter t q ~f:(fun _ -> incr n);
  !n

(* ---------------- parallel read path ---------------- *)

type reader = Vs_index.reader

let reader ?cache_blocks t = Vs_index.reader ?cache_blocks t.cfg

let reader_io = Vs_index.reader_io

let with_reader = Vs_index.with_reader

let query_ids_r t r q = with_reader r (fun () -> query_ids t q)

let segments t =
  let arr = Array.of_seq (Hashtbl.to_seq_values t.ids) in
  Array.sort Segment.compare_id arr;
  arr

let size t =
  let (Pack ((module M), v)) = t.pack in
  M.size v

let block_count t =
  let (Pack ((module M), v)) = t.pack in
  M.block_count v

let io t = t.cfg.stats

let backend t = t.backend

let all_backends =
  [
    ("naive", `Naive);
    ("rtree", `Rtree);
    ("solution1", `Solution1);
    ("solution2", `Solution2);
  ]

let backend_of_string s = List.assoc_opt (String.lowercase_ascii s) all_backends

let backend_tag b = List.find (fun (_, b') -> b' = b) all_backends |> fst

(* ---------------- persistence ---------------- *)

let save ?(image = true) t path =
  Probe.span t.cfg.stats "snapshot.save" @@ fun () ->
  let image =
    if not image then None
    else Some (Marshal.to_string (t.cfg, t.pack) [ Marshal.Closures ])
  in
  let segments = segments t in
  Snapshot.write ~path
    {
      Snapshot.backend = backend_tag t.backend;
      block = t.cfg.block;
      pool_blocks = Block_store.Pool.capacity t.cfg.pool;
      cascade = t.cfg.cascade;
      count = Array.length segments;
      digest = Snapshot.self_digest ();
    }
    ~segments ~image

type open_mode = Restored_image | Rebuilt

let open_db_mode ?(use_image = true) path =
  Segdb_obs.Trace.with_span "snapshot.open" @@ fun () ->
  let c = Snapshot.read ~path in
  let backend =
    match backend_of_string c.header.backend with
    | Some b -> b
    | None ->
        raise
          (Snapshot.Corrupt_snapshot
             (Printf.sprintf "%s: unknown backend %S" path c.header.backend))
  in
  let restored =
    if not use_image then None
    else
      match c.image with
      | Some img
        when c.header.digest <> "" && c.header.digest = Snapshot.self_digest () -> (
          (* the image marshals closures, so it is only meaningful for
             the executable that wrote it — hence the digest guard *)
          try
            let cfg, pack = (Marshal.from_string img 0 : Vs_index.config * pack) in
            Some (make cfg backend pack (seed_ids c.segments))
          with Failure _ -> None)
      | _ -> None
  in
  match restored with
  | Some t -> (t, Restored_image)
  | None ->
      ( create ~backend ~block:c.header.block ~pool_blocks:c.header.pool_blocks
          c.segments,
        Rebuilt )

let open_db ?use_image path = fst (open_db_mode ?use_image path)

(* ---------------- WAL lifecycle ---------------- *)

let attach_wal ?(sync = true) t path =
  if t.wal <> None then invalid_arg "Segdb.attach_wal: a WAL is already attached";
  let w, records = Wal.open_ ~sync path in
  List.iter
    (fun payload ->
      match Codec.decode op_codec payload with
      | op -> apply_op t op
      | exception Codec.Corrupt _ -> ()
      (* an intact frame with an undecodable payload was written by
         something else; skip rather than abort recovery *))
    records;
  t.wal <- Some w;
  List.length records

(* Non-mutating WAL inspection/replay, for [recover --dry-run] and
   [repair]: unlike {!attach_wal} this never truncates the log or
   attaches it. *)
let scan_wal path =
  let skipped = ref 0 in
  let ops =
    List.filter_map
      (fun payload ->
        match Codec.decode op_codec payload with
        | op -> Some op
        | exception Codec.Corrupt _ ->
            incr skipped;
            None)
      (Wal.scan path)
  in
  (ops, !skipped)

let apply_wal_ops t ops = List.iter (apply_op t) ops

let detach_wal t =
  match t.wal with
  | None -> ()
  | Some w ->
      Wal.close w;
      t.wal <- None

let checkpoint ?image t path =
  save ?image t path;
  match t.wal with None -> () | Some w -> Wal.reset w

(* ---------------- integrity validation ---------------- *)

(* Deep check of a live database, reported rather than raised (scrub
   semantics): the index's size against the facade's table, the NCT
   precondition over the stored set (plane sweep), the backend's own
   structural invariants (PST heap/x-order, interval-tree containment,
   cascade d-property, …) via its [check_invariants], and — when
   [queries > 0] — that many random vertical-segment queries
   cross-checked against a freshly built naive index over the table's
   segments. *)
let validate ?(queries = 0) ?(seed = 0) t =
  let findings = ref [] in
  let note fmt = Printf.ksprintf (fun m -> findings := m :: !findings) fmt in
  let segs = segments t in
  let (Pack ((module M), v)) = t.pack in
  if M.size v <> Array.length segs then
    note "%s: size reports %d but the database holds %d segments" (backend_name t)
      (M.size v) (Array.length segs);
  if not (Sweep.verify_nct segs) then
    note "stored segments violate NCT (a crossing pair exists)";
  (try
     if not (M.check_invariants v) then
       note "%s: structural invariants violated" (backend_name t)
   with e ->
     note "%s: invariant check raised %s" (backend_name t) (Printexc.to_string e));
  if queries > 0 && Array.length segs > 0 then begin
    let rng = Segdb_util.Rng.create seed in
    let minx = ref infinity and maxx = ref neg_infinity in
    let miny = ref infinity and maxy = ref neg_infinity in
    Array.iter
      (fun s ->
        minx := Float.min !minx (Segment.min_x s);
        maxx := Float.max !maxx (Segment.max_x s);
        miny := Float.min !miny (Segment.min_y s);
        maxy := Float.max !maxy (Segment.max_y s))
      segs;
    let span lo hi = lo +. Segdb_util.Rng.float rng (Float.max (hi -. lo) 1e-9) in
    let reference = create ~backend:`Naive ~block:t.cfg.block segs in
    for i = 1 to queries do
      let x = span !minx !maxx in
      let a = span !miny !maxy and b = span !miny !maxy in
      let q = Vquery.segment ~x ~ylo:(Float.min a b) ~yhi:(Float.max a b) in
      let got = query_ids t q and want = query_ids reference q in
      if got <> want then
        note "query %d/%d (%s): %d ids, naive finds %d" i queries
          (Format.asprintf "%a" Vquery.pp q)
          (List.length got) (List.length want)
    done
  end;
  List.rev !findings

module Sloped = struct
  type nonrec t = {
    rot : Transform.t;
    db : t;
    originals : (int, Segment.t) Hashtbl.t;
  }

  let create ?backend ?block ?pool_blocks ~slope segs =
    let rot = Transform.to_vertical ~slope in
    let originals = Hashtbl.create (Array.length segs) in
    Array.iter (fun (s : Segment.t) -> Hashtbl.replace originals s.id s) segs;
    let rotated = Array.map (Transform.segment rot) segs in
    { rot; db = create ?backend ?block ?pool_blocks rotated; originals }

  let vq t ~p1 ~p2 = Transform.vquery_of_segment t.rot p1 p2

  let query t ~p1 ~p2 = query_map t.db (vq t ~p1 ~p2) (Hashtbl.find t.originals)

  let count t ~p1 ~p2 = count t.db (vq t ~p1 ~p2)

  let db t = t.db
end
