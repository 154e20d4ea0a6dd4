(* Tests for the simulated disk: LRU semantics and exact I/O accounting. *)

open Segdb_io

let qtest = QCheck_alcotest.to_alcotest

(* ---------------- Lru ---------------- *)

let test_lru_basic () =
  let l = Lru.create ~capacity:2 in
  let evicted = ref [] in
  let on_evict k _ = evicted := k :: !evicted in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 2 "b" ~on_evict;
  Alcotest.(check (option string)) "find 1" (Some "a") (Lru.find l 1);
  Lru.put l 3 "c" ~on_evict;
  (* 2 was least recently used (1 was touched by find) *)
  Alcotest.(check (list int)) "evicted 2" [ 2 ] !evicted;
  Alcotest.(check (option string)) "2 gone" None (Lru.find l 2);
  Alcotest.(check int) "length" 2 (Lru.length l)

let test_lru_replace () =
  let l = Lru.create ~capacity:2 in
  let on_evict _ _ = Alcotest.fail "no eviction expected" in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 1 "b" ~on_evict;
  Alcotest.(check (option string)) "replaced" (Some "b") (Lru.find l 1);
  Alcotest.(check int) "length 1" 1 (Lru.length l)

let test_lru_remove () =
  let l = Lru.create ~capacity:4 in
  let on_evict _ _ = () in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 2 "b" ~on_evict;
  Alcotest.(check (option string)) "remove returns" (Some "a") (Lru.remove l 1);
  Alcotest.(check (option string)) "remove again" None (Lru.remove l 1);
  Alcotest.(check int) "length" 1 (Lru.length l)

let test_lru_iter_order () =
  let l = Lru.create ~capacity:3 in
  let on_evict _ _ = () in
  Lru.put l 1 "a" ~on_evict;
  Lru.put l 2 "b" ~on_evict;
  Lru.put l 3 "c" ~on_evict;
  ignore (Lru.find l 1);
  let order = ref [] in
  Lru.iter l (fun k _ -> order := k :: !order);
  Alcotest.(check (list int)) "MRU first" [ 1; 3; 2 ] (List.rev !order)

(* Model-based property: puts, finds and removes against a naive list
   model, most recent first. Every answer, every evicted binding, the
   final recency order and the length agree. *)
let prop_lru_model =
  QCheck.Test.make ~name:"lru model equivalence" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (small_list (triple (int_range 0 3) (int_range 0 15) (int_range 0 100))))
    (fun (cap, ops) ->
      let l = Lru.create ~capacity:cap in
      let model = ref [] in
      let ok = ref true in
      List.iter
        (fun (op, k, v) ->
          match op with
          | 0 | 1 ->
              let evicted = ref [] in
              Lru.put l k v ~on_evict:(fun k' v' -> evicted := (k', v') :: !evicted);
              let m = (k, v) :: List.remove_assoc k !model in
              model := List.filteri (fun i _ -> i < cap) m;
              if !evicted <> List.filteri (fun i _ -> i >= cap) m then ok := false
          | 2 ->
              let want = List.assoc_opt k !model in
              Option.iter (fun mv -> model := (k, mv) :: List.remove_assoc k !model) want;
              if Lru.find l k <> want then ok := false
          | _ ->
              let want = List.assoc_opt k !model in
              model := List.remove_assoc k !model;
              if Lru.remove l k <> want then ok := false)
        ops;
      let order = ref [] in
      Lru.iter l (fun k v -> order := (k, v) :: !order);
      if List.rev !order <> !model then ok := false;
      List.iter
        (fun (_, k, _) ->
          match List.assoc_opt k !model with
          | Some mv -> if Lru.find l k <> Some mv then ok := false
          | None -> if Lru.mem l k then ok := false)
        ops;
      if Lru.length l <> List.length !model then ok := false;
      !ok)

(* ---------------- Block_store ---------------- *)

module S = Block_store.Make (struct
  type t = int
end)

let mk ?(cap = 4) () =
  let pool = Block_store.Pool.create ~capacity:cap in
  let io = Io_stats.create () in
  let s = S.create ~pool ~stats:io () in
  (s, io, pool)

let test_store_roundtrip () =
  let s, _, _ = mk () in
  let a = S.alloc s 10 and b = S.alloc s 20 in
  Alcotest.(check int) "read a" 10 (S.read s a);
  Alcotest.(check int) "read b" 20 (S.read s b);
  S.write s a 11;
  Alcotest.(check int) "read a after write" 11 (S.read s a);
  Alcotest.(check int) "live blocks" 2 (S.block_count s)

let test_store_no_io_while_resident () =
  let s, io, _ = mk ~cap:8 () in
  let addrs = List.init 4 (fun i -> S.alloc s i) in
  List.iter (fun a -> ignore (S.read s a)) addrs;
  List.iter (fun a -> ignore (S.read s a)) addrs;
  Alcotest.(check int) "no reads charged while resident" 0 (Io_stats.reads io);
  Alcotest.(check int) "no writes yet" 0 (Io_stats.writes io);
  Alcotest.(check int) "allocs counted" 4 (Io_stats.allocs io)

let test_store_eviction_charges () =
  let s, io, _ = mk ~cap:2 () in
  let a = S.alloc s 1 in
  let b = S.alloc s 2 in
  let c = S.alloc s 3 in
  (* pool holds 2; allocating c evicted a (dirty) -> 1 write *)
  Alcotest.(check int) "write on dirty eviction" 1 (Io_stats.writes io);
  Alcotest.(check int) "read back a" 1 (S.read s a);
  (* reading a missed -> 1 read, and evicted b (dirty) -> +1 write *)
  Alcotest.(check int) "read charged" 1 (Io_stats.reads io);
  Alcotest.(check int) "second dirty eviction" 2 (Io_stats.writes io);
  ignore (S.read s c);
  ignore b

let test_store_clean_eviction_free () =
  let s, io, _ = mk ~cap:1 () in
  let a = S.alloc s 1 in
  let _b = S.alloc s 2 in
  (* a evicted dirty: 1 write *)
  Alcotest.(check int) "dirty eviction" 1 (Io_stats.writes io);
  ignore (S.read s a);
  (* b evicted dirty: +1 write; a resident clean *)
  Alcotest.(check int) "dirty eviction b" 2 (Io_stats.writes io);
  ignore (S.read s _b);
  (* a evicted clean: no write *)
  Alcotest.(check int) "clean eviction free" 2 (Io_stats.writes io);
  Alcotest.(check int) "reads" 2 (Io_stats.reads io)

let test_store_free_and_errors () =
  let s, _, _ = mk () in
  let a = S.alloc s 5 in
  S.free s a;
  Alcotest.(check int) "no live blocks" 0 (S.block_count s);
  (match S.read s a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "read after free should raise");
  match S.free s a with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double free should raise"

let test_store_flush () =
  let s, io, _ = mk ~cap:8 () in
  let a = S.alloc s 1 and b = S.alloc s 2 in
  S.flush s;
  Alcotest.(check int) "flush writes dirty blocks" 2 (Io_stats.writes io);
  S.flush s;
  Alcotest.(check int) "second flush free" 2 (Io_stats.writes io);
  ignore (a, b)

let test_store_write_nonresident_no_read () =
  let s, io, _ = mk ~cap:1 () in
  let a = S.alloc s 1 in
  let _b = S.alloc s 2 in
  (* a is on disk now *)
  let r0 = Io_stats.reads io in
  S.write s a 10;
  Alcotest.(check int) "blind overwrite charges no read" r0 (Io_stats.reads io);
  Alcotest.(check int) "value updated" 10 (S.read s a)

(* Satellite pin for block_store.mli's write contract: overwriting a
   non-resident block charges no read at write time, and the dirty page
   is charged exactly one write when evicted or flushed. *)
let test_store_blind_write_accounting () =
  let s, io, _ = mk ~cap:1 () in
  let a = S.alloc s 1 in
  let _b = S.alloc s 2 in
  (* alloc b evicted dirty a: 1 write *)
  Alcotest.(check int) "setup eviction" 1 (Io_stats.writes io);
  S.write s a 10;
  (* blind overwrite of non-resident a: no read, no write yet; inserting
     the frame evicted dirty b: +1 write *)
  Alcotest.(check int) "no read charged" 0 (Io_stats.reads io);
  Alcotest.(check int) "only b's eviction charged" 2 (Io_stats.writes io);
  S.flush s;
  (* the overwritten page pays exactly one write at flush *)
  Alcotest.(check int) "one write on flush" 3 (Io_stats.writes io);
  S.flush s;
  Alcotest.(check int) "clean after flush" 3 (Io_stats.writes io);
  Alcotest.(check int) "value survived" 10 (S.read s a);
  Alcotest.(check int) "still no spurious reads" 0 (Io_stats.reads io)

(* Two stores on one pool: eviction order is the pool's LRU order across
   both stores, and only dirty evictions are charged as writes. *)
let test_shared_pool_eviction_order () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let io = Io_stats.create () in
  let s1 = S.create ~name:"s1" ~pool ~stats:io () in
  let s2 = S.create ~name:"s2" ~pool ~stats:io () in
  let a = S.alloc s1 1 in
  let b = S.alloc s2 2 in
  (* recency now [b; a]; touching a flips it *)
  Alcotest.(check int) "touch a" 1 (S.read s1 a);
  let c = S.alloc s2 3 in
  (* b was LRU: evicted dirty -> 1 write; a survived *)
  Alcotest.(check int) "b evicted dirty" 1 (Io_stats.writes io);
  Alcotest.(check int) "a still resident (no read)" 0 (Io_stats.reads io);
  Alcotest.(check int) "a readable" 1 (S.read s1 a);
  (* clean pages evict for free: flush both stores, then miss on b *)
  S.flush s1;
  S.flush s2;
  let w0 = Io_stats.writes io in
  Alcotest.(check int) "read b back" 2 (S.read s2 b);
  (* b's return evicted the pool's LRU (a or c, both clean): no write *)
  Alcotest.(check int) "clean eviction uncharged" w0 (Io_stats.writes io);
  Alcotest.(check int) "miss charged" 1 (Io_stats.reads io);
  Alcotest.(check bool) "pool bounded" true (Block_store.Pool.resident pool <= 2);
  ignore c

(* Dirty write-back counting when both stores churn through a tiny pool:
   every resident dirty page is written back exactly once. *)
let test_shared_pool_writeback_count () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let io = Io_stats.create () in
  let s1 = S.create ~name:"s1" ~pool ~stats:io () in
  let s2 = S.create ~name:"s2" ~pool ~stats:io () in
  let n = 6 in
  let a1 = Array.init n (fun i -> S.alloc s1 i) in
  let a2 = Array.init n (fun i -> S.alloc s2 (100 + i)) in
  (* 2n dirty allocations through a 2-frame pool: all but the final two
     residents were evicted dirty *)
  Alcotest.(check int) "evictions charged" ((2 * n) - 2) (Io_stats.writes io);
  S.flush s1;
  S.flush s2;
  Alcotest.(check int) "flush writes the rest" (2 * n) (Io_stats.writes io);
  Array.iteri (fun i a -> Alcotest.(check int) "s1 contents" i (S.read s1 a)) a1;
  Array.iteri (fun i a -> Alcotest.(check int) "s2 contents" (100 + i) (S.read s2 a)) a2

(* Two stores sharing one pool compete for frames. *)
let test_shared_pool () =
  let pool = Block_store.Pool.create ~capacity:2 in
  let io = Io_stats.create () in
  let s1 = S.create ~name:"s1" ~pool ~stats:io () in
  let s2 = S.create ~name:"s2" ~pool ~stats:io () in
  let a = S.alloc s1 1 in
  let _ = S.alloc s2 2 in
  let _ = S.alloc s2 3 in
  (* a was evicted by s2's allocations *)
  let r0 = Io_stats.reads io in
  Alcotest.(check int) "read back from disk" 1 (S.read s1 a);
  Alcotest.(check int) "miss charged" (r0 + 1) (Io_stats.reads io);
  Alcotest.(check bool) "pool bounded" true (Block_store.Pool.resident pool <= 2)

let prop_store_model =
  QCheck.Test.make ~name:"block store read-your-writes under eviction" ~count:200
    QCheck.(pair (int_range 1 6) (small_list (pair (int_range 0 9) (int_range 0 999))))
    (fun (cap, writes) ->
      let pool = Block_store.Pool.create ~capacity:cap in
      let io = Io_stats.create () in
      let s = S.create ~pool ~stats:io () in
      let addr_of = Hashtbl.create 16 in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          (match Hashtbl.find_opt addr_of k with
          | None -> Hashtbl.add addr_of k (S.alloc s v)
          | Some a -> S.write s a v);
          Hashtbl.replace model k v)
        writes;
      Hashtbl.fold
        (fun k a ok -> ok && S.read s a = Hashtbl.find model k)
        addr_of true)

let suite =
  ( "io",
    [
      Alcotest.test_case "lru basic" `Quick test_lru_basic;
      Alcotest.test_case "lru replace" `Quick test_lru_replace;
      Alcotest.test_case "lru remove" `Quick test_lru_remove;
      Alcotest.test_case "lru iter order" `Quick test_lru_iter_order;
      Alcotest.test_case "store roundtrip" `Quick test_store_roundtrip;
      Alcotest.test_case "store resident free" `Quick test_store_no_io_while_resident;
      Alcotest.test_case "store eviction charges" `Quick test_store_eviction_charges;
      Alcotest.test_case "store clean eviction free" `Quick test_store_clean_eviction_free;
      Alcotest.test_case "store free/errors" `Quick test_store_free_and_errors;
      Alcotest.test_case "store flush" `Quick test_store_flush;
      Alcotest.test_case "store blind write" `Quick test_store_write_nonresident_no_read;
      Alcotest.test_case "store blind write accounting pin" `Quick
        test_store_blind_write_accounting;
      Alcotest.test_case "shared pool" `Quick test_shared_pool;
      Alcotest.test_case "shared pool eviction order" `Quick
        test_shared_pool_eviction_order;
      Alcotest.test_case "shared pool write-back count" `Quick
        test_shared_pool_writeback_count;
      qtest prop_lru_model;
      qtest prop_store_model;
    ] )

(* ---------------- Crc ---------------- *)

let test_crc_vectors () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc.string "");
  Alcotest.(check bool) "distinct" true (Crc.string "abc" <> Crc.string "abd")

let prop_crc_incremental =
  QCheck.Test.make ~name:"crc incremental equals one-shot" ~count:200
    QCheck.(pair (small_string) (small_string))
    (fun (a, b) ->
      let s = a ^ b in
      let acc = Crc.update Crc.init a ~pos:0 ~len:(String.length a) in
      let acc = Crc.update acc (a ^ b) ~pos:(String.length a) ~len:(String.length b) in
      Crc.finish acc = Crc.string s)

(* ---------------- Codec ---------------- *)

let prop_codec_roundtrip =
  let c =
    Codec.(pair int (pair float (pair string (pair bool (list int)))))
  in
  QCheck.Test.make ~name:"codec roundtrip" ~count:300
    QCheck.(
      quad int float (printable_string)
        (pair bool (small_list int)))
    (fun (i, f, s, (b, l)) ->
      let v = (i, (f, (s, (b, l)))) in
      let d = Codec.decode c (Codec.encode c v) in
      (* distinguish nan from nan by bits, not by (=) *)
      let (i', (f', rest')) = d and (_, (_, rest)) = v in
      i' = i && Int64.bits_of_float f' = Int64.bits_of_float f && rest' = rest)

let test_codec_corrupt () =
  let s = Codec.encode Codec.int 42 in
  (match Codec.decode Codec.int (s ^ "x") with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "trailing bytes must raise");
  (match Codec.decode Codec.int (String.sub s 0 4) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncation must raise");
  match Codec.decode Codec.(array int) "\xff\xff\xff\xff" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "huge array length must raise"

(* ---------------- Wal ---------------- *)

let test_wal_roundtrip () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string)) "fresh log" [] replayed;
      Wal.append w "alpha";
      Wal.append w "";
      Wal.append w (String.make 1000 'z');
      Wal.close w;
      let w2, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string))
        "records survive" [ "alpha"; ""; String.make 1000 'z' ] replayed;
      Wal.append w2 "omega";
      Wal.close w2;
      Alcotest.(check (list string))
        "scan sees appended"
        [ "alpha"; ""; String.make 1000 'z'; "omega" ]
        (Wal.scan path))

let test_wal_reset () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "a";
      Wal.append w "b";
      Wal.reset w;
      Alcotest.(check int) "empty after reset" 0 (Wal.size w);
      Wal.append w "c";
      Wal.close w;
      Alcotest.(check (list string)) "only post-reset records" [ "c" ] (Wal.scan path))

(* The acceptance test: truncate the log at EVERY byte offset; recovery
   must accept exactly the complete frames and repair the file. *)
let test_wal_torn_tail_sweep () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  let torn = Filename.temp_file "segdb_wal" ".torn" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove torn)
    (fun () ->
      let payloads = [ "a"; ""; "bcd"; String.make 57 'x'; "e"; "fg" ] in
      let w, _ = Wal.open_ ~sync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* frame boundaries: 8 bytes of framing per record *)
      let boundaries =
        List.fold_left
          (fun acc p -> (List.hd acc + 8 + String.length p) :: acc)
          [ 0 ] payloads
        |> List.rev
      in
      let expected_at len =
        let rec go ps bs acc =
          match (ps, bs) with
          | p :: ps', b :: (b' :: _ as bs') when b' <= len -> ignore b; go ps' bs' (p :: acc)
          | _ -> List.rev acc
        in
        go payloads boundaries []
      in
      for len = 0 to String.length data do
        let oc = open_out_bin torn in
        output_string oc (String.sub data 0 len);
        close_out oc;
        let w, replayed = Wal.open_ ~sync:false torn in
        let expect = expected_at len in
        if replayed <> expect then
          Alcotest.failf "truncation at %d: got %d records, expected %d" len
            (List.length replayed) (List.length expect);
        (* the torn tail was truncated away: the file is now exactly its
           valid prefix *)
        let repaired = (Unix.stat torn).Unix.st_size in
        let valid =
          List.fold_left (fun acc p -> acc + 8 + String.length p) 0 expect
        in
        if repaired <> valid then
          Alcotest.failf "truncation at %d: repaired size %d, expected %d" len repaired
            valid;
        Wal.close w
      done)

let test_wal_corrupt_byte () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "hello";
      Wal.append w "world";
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* flip a byte inside the first payload: both records die (the
         second is unreachable without trusting the first frame) *)
      let b = Bytes.of_string data in
      Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 0xFF));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      Alcotest.(check (list string)) "corrupt frame stops the scan" [] (Wal.scan path))

(* Replay from an arbitrary LSN offset into the log's total order —
   the replication catch-up path. *)
let test_wal_scan_from () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let payloads = [ "a"; "bb"; ""; "dddd"; "e" ] in
      let w, _ = Wal.open_ ~sync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      Alcotest.(check (list string)) "from 0 = scan" payloads (Wal.scan_from path ~from:0);
      Alcotest.(check (list string))
        "negative behaves like 0" payloads
        (Wal.scan_from path ~from:(-3));
      Alcotest.(check (list string))
        "mid offset" [ ""; "dddd"; "e" ]
        (Wal.scan_from path ~from:2);
      Alcotest.(check (list string)) "last record" [ "e" ] (Wal.scan_from path ~from:4);
      Alcotest.(check (list string)) "at the end" [] (Wal.scan_from path ~from:5);
      Alcotest.(check (list string)) "past the end" [] (Wal.scan_from path ~from:50);
      Alcotest.(check (list string))
        "missing file" []
        (Wal.scan_from (path ^ ".does-not-exist") ~from:0))

(* A tail torn exactly at a record boundary is indistinguishable from a
   clean close: every record before the cut survives, the audit shows
   zero torn bytes, and open_ truncates nothing. *)
let test_wal_torn_at_record_boundary () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  let torn = Filename.temp_file "segdb_wal" ".torn" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove torn)
    (fun () ->
      let payloads = [ "alpha"; ""; "gamma!" ] in
      let w, _ = Wal.open_ ~sync:false path in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let cut = ref 0 in
      List.iteri
        (fun i p ->
          cut := !cut + 8 + String.length p;
          let oc = open_out_bin torn in
          output_string oc (String.sub data 0 !cut);
          close_out oc;
          let a = Wal.audit torn in
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: records" i)
            (i + 1) a.Wal.audit_records;
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: no torn tail" i)
            a.Wal.valid_bytes a.Wal.file_bytes;
          let w, replayed = Wal.open_ ~sync:false torn in
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: replay" i)
            (i + 1) (List.length replayed);
          Alcotest.(check int)
            (Printf.sprintf "boundary %d: open_ truncated nothing" i)
            !cut
            (Unix.stat torn).Unix.st_size;
          Wal.close w)
        payloads)

(* Audit on an empty (zero-length but existing) log: all zeros, and
   consistent with what open_ replays. *)
let test_wal_audit_empty () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Alcotest.(check int) "fresh temp file is empty" 0 (Unix.stat path).Unix.st_size;
      let a = Wal.audit path in
      Alcotest.(check int) "no records" 0 a.Wal.audit_records;
      Alcotest.(check int) "no valid bytes" 0 a.Wal.valid_bytes;
      Alcotest.(check int) "no file bytes" 0 a.Wal.file_bytes;
      let w, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string)) "open_ replays nothing" [] replayed;
      Wal.close w;
      Alcotest.(check (list string)) "scan_from on empty" [] (Wal.scan_from path ~from:0))

(* ---------------- Failpoint ---------------- *)

(* Every test arms the global registry, so every test disarms in a
   [finally] — a leaked plan would fault unrelated tests. *)
let with_armed ?seed plans f =
  Fun.protect ~finally:Failpoint.disarm (fun () ->
      Failpoint.arm ?seed plans;
      f ())

let test_fp_parse () =
  (match Failpoint.parse_spec "wal.append=crash@3;fsync=eio+" with
  | Error e -> Alcotest.failf "valid spec rejected: %s" e
  | Ok plans ->
      Alcotest.(check int) "two plans" 2 (List.length plans);
      let p = List.assoc "wal.append" plans in
      Alcotest.(check int) "hit number" 3 p.Failpoint.at;
      Alcotest.(check bool) "one-shot" false p.Failpoint.persistent;
      let q = List.assoc "fsync" plans in
      Alcotest.(check bool) "persistent" true q.Failpoint.persistent);
  List.iter
    (fun bad ->
      match Failpoint.parse_spec bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed spec accepted: %S" bad)
    [ "fsync"; "fsync=frob"; "fsync=eio@zero"; "=eio" ]

let test_fp_disarmed () =
  Failpoint.disarm ();
  Alcotest.(check bool) "disarmed by default" false (Failpoint.armed ());
  Alcotest.(check bool) "fire is a no-op" true
    (Failpoint.fire (Failpoint.site "fsync") = None)

(* A one-shot transient EIO on the append path heals invisibly: the
   record lands intact, only the site's hit counter shows the retry. *)
let test_fp_retry_transparent () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "before";
      with_armed [ ("wal.append", Failpoint.plan Failpoint.Eio) ] (fun () ->
          Wal.append w "healed";
          Alcotest.(check int) "fired once, retried once" 2
            (Failpoint.hits (Failpoint.site "wal.append")));
      Wal.close w;
      Alcotest.(check (list string))
        "transient EIO healed" [ "before"; "healed" ] (Wal.scan path))

(* A persistent EIO is a dead device: the bounded retry gives up and
   the error surfaces instead of spinning forever, and the log keeps
   exactly the records acknowledged before it. *)
let test_fp_persistent_eio () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "acked";
      with_armed [ ("wal.append", Failpoint.plan ~persistent:true Failpoint.Eio) ] (fun () ->
          match Wal.append w "refused" with
          | () -> Alcotest.fail "persistent EIO must surface"
          | exception Unix.Unix_error (Unix.EIO, _, _) -> ());
      Alcotest.(check (list string)) "acknowledged prefix kept" [ "acked" ] (Wal.scan path);
      (* the device recovered: the handle is still usable *)
      Wal.append w "after";
      Wal.close w;
      Alcotest.(check (list string)) "usable after disarm" [ "acked"; "after" ] (Wal.scan path))

(* A flipped bit on the write path is silent at write time; the frame
   CRC refuses the record at replay, so it is dropped, never delivered
   as a wrong value. *)
let test_fp_write_flip_caught () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "intact";
      with_armed ~seed:7 [ ("wal.append", Failpoint.plan Failpoint.Bit_flip) ] (fun () ->
          Wal.append w "flipped");
      Wal.close w;
      let w2, replayed = Wal.open_ ~sync:false path in
      Wal.close w2;
      Alcotest.(check (list string)) "flipped frame dropped at replay" [ "intact" ] replayed)

(* Torn WAL append: the writer dies mid-frame; recovery replays the
   intact prefix and truncates the tear, and [Wal.audit] sees both
   states. *)
let test_wal_torn_append () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "one";
      Wal.append w "two";
      with_armed ~seed:3 [ ("wal.append", Failpoint.plan Failpoint.Torn) ] (fun () ->
          match Wal.append w (String.make 200 'q') with
          | () -> Alcotest.fail "torn append must crash"
          | exception Failpoint.Injected_crash _ -> ());
      Wal.close w;
      let a = Wal.audit path in
      Alcotest.(check int) "intact records" 2 a.Wal.audit_records;
      Alcotest.(check bool) "tear is visible" true (a.Wal.file_bytes >= a.Wal.valid_bytes);
      let w2, replayed = Wal.open_ ~sync:false path in
      Alcotest.(check (list string)) "prefix replayed" [ "one"; "two" ] replayed;
      Wal.close w2;
      let a2 = Wal.audit path in
      Alcotest.(check int) "tail truncated" a2.Wal.valid_bytes a2.Wal.file_bytes)

(* A short write on the append path is retried from the frame start:
   the caller never notices and the log has no partial frame. *)
let test_wal_short_append_retried () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "first";
      with_armed ~seed:5 [ ("wal.append", Failpoint.plan Failpoint.Short) ] (fun () ->
          Wal.append w (String.make 100 'r'));
      Wal.append w "last";
      Wal.close w;
      Alcotest.(check (list string))
        "every record intact"
        [ "first"; String.make 100 'r'; "last" ]
        (Wal.scan path);
      let a = Wal.audit path in
      Alcotest.(check int) "no torn bytes" a.Wal.valid_bytes a.Wal.file_bytes)

(* Bit flips in each field of a WAL frame: length, checksum, payload —
   the scan must stop at the damaged frame, never deliver garbage. *)
let test_wal_flip_fields () =
  let write_flipped path data pos =
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "hello";
      Wal.append w "world";
      Wal.close w;
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      (* frame 1 occupies [0, 13): len u32 | crc u32 | 5 payload bytes *)
      List.iter
        (fun (pos, what) ->
          write_flipped path data pos;
          Alcotest.(check (list string))
            (Printf.sprintf "flip in %s kills frame 1" what)
            [] (Wal.scan path))
        [ (0, "length"); (4, "checksum"); (9, "payload") ];
      (* frame 2's fields: frame 1 must still be delivered *)
      List.iter
        (fun (pos, what) ->
          write_flipped path data pos;
          Alcotest.(check (list string))
            (Printf.sprintf "flip in frame-2 %s keeps frame 1" what)
            [ "hello" ] (Wal.scan path))
        [ (13, "length"); (17, "checksum"); (21, "payload") ])

let test_wal_audit () =
  let path = Filename.temp_file "segdb_wal" ".wal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let missing = Wal.audit (path ^ ".does-not-exist") in
      Alcotest.(check int) "missing file: no records" 0 missing.Wal.audit_records;
      Alcotest.(check int) "missing file: no bytes" 0 missing.Wal.file_bytes;
      let w, _ = Wal.open_ ~sync:false path in
      Wal.append w "aa";
      Wal.append w "bbbb";
      Wal.close w;
      let a = Wal.audit path in
      Alcotest.(check int) "records" 2 a.Wal.audit_records;
      Alcotest.(check int) "fully valid" a.Wal.file_bytes a.Wal.valid_bytes;
      Alcotest.(check int) "framing accounted" (8 + 2 + 8 + 4) a.Wal.valid_bytes;
      (* garbage after the valid prefix *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "\xde\xad\xbe\xef";
      close_out oc;
      let a2 = Wal.audit path in
      Alcotest.(check int) "records unchanged" 2 a2.Wal.audit_records;
      Alcotest.(check int) "valid prefix unchanged" a.Wal.valid_bytes a2.Wal.valid_bytes;
      Alcotest.(check int) "garbage counted" (a.Wal.file_bytes + 4) a2.Wal.file_bytes)

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "failpoint spec parser" `Quick test_fp_parse;
        Alcotest.test_case "failpoint disarmed no-op" `Quick test_fp_disarmed;
        Alcotest.test_case "transient EIO healed by retry" `Quick test_fp_retry_transparent;
        Alcotest.test_case "persistent EIO surfaces bounded" `Quick test_fp_persistent_eio;
        Alcotest.test_case "write-path bit flip caught by CRC" `Quick
          test_fp_write_flip_caught;
        Alcotest.test_case "wal torn append recovers prefix" `Quick test_wal_torn_append;
        Alcotest.test_case "wal short append retried" `Quick test_wal_short_append_retried;
        Alcotest.test_case "wal flips in every frame field" `Quick test_wal_flip_fields;
        Alcotest.test_case "wal audit" `Quick test_wal_audit;
      ] )

let suite =
  let name, cases = suite in
  ( name,
    cases
    @ [
        Alcotest.test_case "crc vectors" `Quick test_crc_vectors;
        qtest prop_crc_incremental;
        qtest prop_codec_roundtrip;
        Alcotest.test_case "codec corrupt input" `Quick test_codec_corrupt;
        Alcotest.test_case "wal roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "wal reset" `Quick test_wal_reset;
        Alcotest.test_case "wal torn tail at every offset" `Quick test_wal_torn_tail_sweep;
        Alcotest.test_case "wal corrupt byte" `Quick test_wal_corrupt_byte;
        Alcotest.test_case "wal scan from arbitrary lsn" `Quick test_wal_scan_from;
        Alcotest.test_case "wal torn exactly at record boundary" `Quick
          test_wal_torn_at_record_boundary;
        Alcotest.test_case "wal audit on empty log" `Quick test_wal_audit_empty;
      ] )
