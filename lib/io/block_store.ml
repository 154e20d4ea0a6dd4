type addr = int

let null = 0

module Pool = struct
  type entry = { evict : unit -> unit }

  type t = { lru : entry Lru.t; mutable next_addr : int }

  let create ~capacity = { lru = Lru.create ~capacity; next_addr = 1 }

  let capacity t = Lru.capacity t.lru
  let resident t = Lru.length t.lru

  let touch t a = ignore (Lru.find t.lru a)

  let insert t a entry =
    Lru.put t.lru a entry ~on_evict:(fun _ e -> e.evict ())

  let forget t a = ignore (Lru.remove t.lru a)
end

module Make (P : sig
  type t
end) =
struct
  type frame = { mutable payload : P.t; mutable dirty : bool }

  type t = {
    name : string;
    uid : int; (* distinguishes stores inside a shared read context *)
    pool : Pool.t;
    io : Io_stats.t;
    disk : (addr, P.t) Hashtbl.t; (* contents of non-resident blocks *)
    cache : (addr, frame) Hashtbl.t; (* resident blocks of this store *)
    live : (addr, unit) Hashtbl.t;
    mutable epoch : int;
        (* bumped by [write] and [free]; a reader's shard entry from an
           older epoch is a miss *)
  }

  let create ?(name = "store") ~pool ~stats () =
    {
      name;
      uid = Read_context.fresh_uid ();
      pool;
      io = stats;
      disk = Hashtbl.create 1024;
      cache = Hashtbl.create 64;
      live = Hashtbl.create 1024;
      epoch = 0;
    }

  (* Mutators refuse to run under a read context: queries that sneak in
     an alloc/write/free are a purity bug, and this is where it trips. *)
  let guard_writer t op =
    if Read_context.active () <> None then
      invalid_arg
        (Printf.sprintf "Block_store(%s): %s under a read context (queries must not mutate)"
           t.name op)

  let evict t a =
    match Hashtbl.find_opt t.cache a with
    | None -> ()
    | Some frame ->
        Hashtbl.remove t.cache a;
        if frame.dirty then Io_stats.record_write t.io;
        Hashtbl.replace t.disk a frame.payload

  let make_resident t a frame =
    Hashtbl.replace t.cache a frame;
    Pool.insert t.pool a { Pool.evict = (fun () -> evict t a) }

  let alloc t payload =
    guard_writer t "alloc";
    let a = t.pool.Pool.next_addr in
    t.pool.Pool.next_addr <- a + 1;
    Io_stats.record_alloc t.io;
    Hashtbl.replace t.live a ();
    make_resident t a { payload; dirty = true };
    a

  let fail_unknown t a =
    invalid_arg (Printf.sprintf "Block_store(%s): unknown or freed address %d" t.name a)

  (* Read under an installed context: the shared pool, shared stats and
     this store's tables are consulted read-only and never modified, so
     any number of domains may run this concurrently (writers excluded
     by the reader/writer contract). A block resident in the shared pool
     is free, exactly as in the serial model; a disk block charges one
     read to the *reader's* stats and lands in the reader's own LRU
     shard, so each reader pays its own cold misses. A shard entry
     cached before this store's last write or free is a miss like any
     other, charged only if its block has left the shared pool. *)
  let read_via t ctx a =
    (* block-fetch granularity for deadlines: an expired request stops
       here instead of scanning to completion *)
    Read_context.poll ctx;
    match Read_context.find ctx ~uid:t.uid ~epoch:t.epoch ~addr:a with
    | Some payload -> (Obj.obj payload : P.t)
    | None -> (
        match Hashtbl.find_opt t.cache a with
        | Some frame ->
            (* free (no disk read), but warm the reader's shard so the
               next access is a local hit rather than a recounted miss *)
            Read_context.add ctx ~uid:t.uid ~epoch:t.epoch ~addr:a (Obj.repr frame.payload);
            frame.payload
        | None -> (
            match Hashtbl.find_opt t.disk a with
            | Some payload ->
                Io_stats.record_read (Read_context.stats ctx);
                Read_context.add ctx ~uid:t.uid ~epoch:t.epoch ~addr:a (Obj.repr payload);
                payload
            | None -> fail_unknown t a))

  let read t a =
    match Read_context.active () with
    | Some ctx -> read_via t ctx a
    | None -> (
        match Hashtbl.find_opt t.cache a with
        | Some frame ->
            Pool.touch t.pool a;
            frame.payload
        | None -> (
            match Hashtbl.find_opt t.disk a with
            | Some payload ->
                Io_stats.record_read t.io;
                Hashtbl.remove t.disk a;
                make_resident t a { payload; dirty = false };
                payload
            | None -> fail_unknown t a))

  let write t a payload =
    guard_writer t "write";
    if not (Hashtbl.mem t.live a) then fail_unknown t a;
    t.epoch <- t.epoch + 1;
    match Hashtbl.find_opt t.cache a with
    | Some frame ->
        frame.payload <- payload;
        frame.dirty <- true;
        Pool.touch t.pool a
    | None ->
        (* Full-block overwrite: the old contents are not needed, so no
           read is charged; the write is charged at eviction/flush. *)
        Hashtbl.remove t.disk a;
        make_resident t a { payload; dirty = true }

  let free t a =
    guard_writer t "free";
    if not (Hashtbl.mem t.live a) then fail_unknown t a;
    t.epoch <- t.epoch + 1;
    Hashtbl.remove t.live a;
    Hashtbl.remove t.disk a;
    if Hashtbl.mem t.cache a then begin
      Hashtbl.remove t.cache a;
      Pool.forget t.pool a
    end

  let flush t =
    guard_writer t "flush";
    Hashtbl.iter
      (fun _ frame ->
        if frame.dirty then begin
          Io_stats.record_write t.io;
          frame.dirty <- false
        end)
      t.cache

  let block_count t = Hashtbl.length t.live
end
