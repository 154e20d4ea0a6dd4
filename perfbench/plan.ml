(* The three workloads: their data sets, their op sequences, and the
   answers the in-process engine gives to them. Everything here is a
   pure function of the workload and the seed. *)

open Segdb_geom
module Rng = Segdb_util.Rng
module Workload = Segdb_workload.Workload
module Db = Segdb_core.Segdb

type family = Roads | Uniform

type spec = {
  name : string;
  family : family;
  cache_blocks : int;  (** the snapshot's pool, hence the server reader's shard *)
  selectivity : float;  (** query height as a share of the data extent *)
  queries : int;  (** distinct queries a read-only workload cycles through *)
  churn : bool;  (** writes are interleaved with the queries *)
  warmup : int;  (** ops run before any measurement *)
  replay : int;  (** ops the in-process replay measures after the warm-up *)
}

let span = 1_000_000.
let block = 64
let loaded = 65_536

(* The insert pool, and the inserts (and deletes) of one churn
   half-period. *)
let held_out = 2_048

let specs =
  [
    { name = "lookup"; family = Roads; cache_blocks = 64; selectivity = 0.02; queries = 8_192;
      churn = false; warmup = 2_048; replay = 16_384 };
    { name = "scan"; family = Uniform; cache_blocks = 4_096; selectivity = 0.05; queries = 2_048;
      churn = false; warmup = 512; replay = 4_096 };
    { name = "churn"; family = Roads; cache_blocks = 64; selectivity = 0.02; queries = 0;
      churn = true; warmup = 2_048; replay = 10 * held_out };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

type op = Query of Vquery.t | Insert of Segment.t | Delete of Segment.t

type answer = Ids of int array | Changed of bool

type t = {
  spec : spec;
  seed : int;
  loaded : Segment.t array;
  pool : Segment.t array;  (** held out of [loaded]; what the workload inserts *)
  ops : op array;
      (** One period: op [i] of a run is [ops.(i mod period)]. A churn
          period deletes and re-inserts the same segments, so its live
          set repeats from period to period. *)
  probe : op array;
      (** Read-only workloads only: writes sent after the timed window,
          so every workload reports write latency. *)
}

(* independent streams of one seed *)
let stream ~seed k = Rng.create ((seed * 1_000_003) + k)

(* One certified-NCT generator call, split by a seeded shuffle rather
   than a prefix: generators emit track by track, so a prefix would hold
   out whole tracks. *)
let dataset family ~seed =
  let n = loaded + held_out in
  (* uniform drops pieces and ends tracks at the extent, so it returns
     fewer segments than asked; a fixed margin keeps its density the
     same for every seed, and the split discards the surplus *)
  let asked = match family with Roads -> n | Uniform -> n + (n / 10) in
  let all =
    match family with
    | Roads -> Workload.roads (stream ~seed 1) ~n:asked ~span
    | Uniform -> Workload.uniform (stream ~seed 1) ~n:asked ~span
  in
  if Array.length all < n then
    failwith (Printf.sprintf "generator made %d segments, %d wanted" (Array.length all) n);
  let all = Array.copy all in
  Rng.shuffle (stream ~seed 2) all;
  (Array.sub all 0 loaded, Array.sub all loaded held_out)

let interleave rng ~inserts ~deletes ~queries =
  let kinds =
    Array.concat
      [
        Array.make (Array.length inserts) 0;
        Array.make (Array.length deletes) 1;
        Array.make (Array.length queries) 2;
      ]
  in
  Rng.shuffle rng kinds;
  let next = [| 0; 0; 0 |] in
  Array.map
    (fun kind ->
      let i = next.(kind) in
      next.(kind) <- i + 1;
      match kind with
      | 0 -> Insert inserts.(i)
      | 1 -> Delete deletes.(i)
      | _ -> Query queries.(i))
    kinds

let make spec ~seed =
  let loaded, pool = dataset spec.family ~seed in
  let qrng = stream ~seed 3 and mix = stream ~seed 4 in
  let queries n = Workload.segment_queries qrng ~n ~span ~selectivity:spec.selectivity in
  let victims =
    let v = Array.copy loaded in
    Rng.shuffle mix v;
    Array.sub v 0 held_out
  in
  let ops, probe =
    if spec.churn then
      (* 60% queries, 20% inserts, 20% deletes; the second half undoes
         the first *)
      let first = interleave mix ~inserts:pool ~deletes:victims ~queries:(queries (3 * held_out)) in
      let second = interleave mix ~inserts:victims ~deletes:pool ~queries:(queries (3 * held_out)) in
      (Array.append first second, [||])
    else
      ( Array.map (fun q -> Query q) (queries spec.queries),
        interleave mix ~inserts:pool ~deletes:victims ~queries:[||] )
  in
  { spec; seed; loaded; pool; ops; probe }

let build t =
  Db.create ~backend:`Solution2 ~block ~pool_blocks:t.spec.cache_blocks t.loaded

(* Without an image, so every reader rebuilds from the segment section
   as segdb_server does with any snapshot it did not write itself. *)
let write_snapshot t path = Db.save ~image:false (build t) path

let op_of_write = function
  | Insert s -> Db.Op_insert s
  | Delete s -> Db.Op_delete s
  | Query _ -> invalid_arg "Plan.op_of_write: a query"

(* The answers to ops [0 .. count - 1] of a run, by replaying them in
   order on [db]. Every op is replayed rather than one period: what the
   index answers after a write depends on its structure, not only on
   the live set. *)
let expect db ops ~count =
  Array.init count (fun i ->
      match ops.(i mod Array.length ops) with
      | Query q -> Ids (Array.of_list (Db.query_ids db q))
      | (Insert _ | Delete _) as w -> Changed (Db.commit db (op_of_write w)))

(* Replays one period of [t]'s ops on a plain live set and counts the
   queries whose [expected] answer (from [expect]) holds other ids.
   [expected] comes from the engine under test, so a defect it shares
   with the server checks as correct; this count keeps such a defect in
   sight. The live set files each segment under every slab of the x-axis
   its x-range meets, and a query tests its own slab's segments with
   [Vquery.matches], the test every index is checked against; a segment
   that meets the query's x is filed under that x's slab, so the filter
   drops no answer. Returns the divergent queries and the queries
   compared. *)
let slabs = 4_096

let slab x = max 0 (min (slabs - 1) (int_of_float (x /. span *. float_of_int slabs)))

let divergent t expected =
  let live = Array.init slabs (fun _ -> Hashtbl.create 64) in
  let file f (s : Segment.t) =
    for k = slab (Segment.min_x s) to slab (Segment.max_x s) do
      f live.(k) s
    done
  in
  let add h (s : Segment.t) = Hashtbl.replace h s.id s in
  let remove h (s : Segment.t) =
    match Hashtbl.find_opt h s.id with
    | Some s' when Segment.equal s s' -> Hashtbl.remove h s.id
    | _ -> ()
  in
  Array.iter (file add) t.loaded;
  let sorted a =
    let a = Array.copy a in
    Array.sort compare a;
    a
  in
  let bad = ref 0 and queries = ref 0 in
  for i = 0 to min (Array.length expected) (Array.length t.ops) - 1 do
    match (t.ops.(i), expected.(i)) with
    | Query q, Ids want ->
        incr queries;
        let got =
          Hashtbl.fold
            (fun id s acc -> if Vquery.matches q s then id :: acc else acc)
            live.(slab q.Vquery.x) []
        in
        if sorted want <> sorted (Array.of_list got) then incr bad
    | Insert s, Changed _ -> file add s
    | Delete s, Changed _ -> file remove s
    | _ -> invalid_arg "Plan.divergent: the answer does not fit the op"
  done;
  (!bad, !queries)

(* How many ops of a churn run have answers: more than a run of
   [seconds] can reach at [max_rate] ops/s, and at least what the
   in-process replay needs. A read-only workload's answers repeat with
   its period. *)
let max_rate = 20_000.

let answered spec ~seconds ~period =
  if spec.churn then spec.warmup + max spec.replay (int_of_float (Float.ceil (seconds *. max_rate)))
  else period
