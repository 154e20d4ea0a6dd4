open Segdb_io

exception Corrupt_snapshot of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt_snapshot m)) fmt

let magic = "SEGDBSNP"
let version = 1
let sp_write = Failpoint.site "snapshot.write"
let tag_segments = 1
let tag_image = 2

type header = {
  backend : string;
  block : int;
  pool_blocks : int;
  cascade : bool;
  count : int;
  digest : string;
}

type contents = {
  header : header;
  segments : Segdb_geom.Segment.t array;
  image : string option;
}

let is_snapshot path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> (try really_input_string ic 8 with End_of_file -> "") = magic)

let self_digest =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some d -> d
    | None ->
        let d =
          try Digest.to_hex (Digest.file Sys.executable_name) with Sys_error _ -> ""
        in
        memo := Some d;
        d

let header_codec : header Codec.t =
  {
    write =
      (fun b h ->
        Codec.W.str b h.backend;
        Codec.W.u32 b h.block;
        Codec.W.u32 b h.pool_blocks;
        Codec.bool.write b h.cascade;
        Codec.W.u64 b h.count;
        Codec.W.str b h.digest);
    read =
      (fun r ->
        let backend = Codec.R.str r in
        let block = Codec.R.u32 r in
        let pool_blocks = Codec.R.u32 r in
        let cascade = Codec.bool.read r in
        let count = Codec.R.u64 r in
        let digest = Codec.R.str r in
        { backend; block; pool_blocks; cascade; count; digest });
  }

let write_section b tag payload =
  Codec.W.u8 b tag;
  Codec.W.u64 b (String.length payload);
  Codec.W.u32 b (Crc.string payload);
  Buffer.add_string b payload

let write ~path header ~segments ~image =
  let b = Buffer.create (4096 + (48 * Array.length segments)) in
  Buffer.add_string b magic;
  Codec.W.u32 b version;
  let hp = Codec.encode header_codec header in
  Codec.W.u32 b (String.length hp);
  Buffer.add_string b hp;
  Codec.W.u32 b (Crc.string hp);
  write_section b tag_segments (Codec.encode Seg_file.array_codec segments);
  (match image with None -> () | Some img -> write_section b tag_image img);
  (* write to a temp file, fsync, then rename: a crashed save never
     clobbers the previous snapshot *)
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Failpoint.Io.write_all ~site:sp_write fd ~off:0 (Buffer.to_bytes b);
      Failpoint.Io.fsync fd);
  Sys.rename tmp path

let read ~path =
  let data =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let r = Codec.R.of_string data in
  (try
     if Codec.R.raw r 8 <> magic then corrupt "%s: not a segdb snapshot (bad magic)" path
   with Codec.Corrupt _ -> corrupt "%s: not a segdb snapshot (too short)" path);
  try
    let ver = Codec.R.u32 r in
    if ver <> version then corrupt "%s: unsupported snapshot version %d" path ver;
    let hlen = Codec.R.u32 r in
    let hp = Codec.R.raw r hlen in
    let hcrc = Codec.R.u32 r in
    if Crc.string hp <> hcrc then corrupt "%s: header CRC mismatch" path;
    let header = Codec.decode header_codec hp in
    let segments = ref None and image = ref None in
    while Codec.R.remaining r > 0 do
      let tag = Codec.R.u8 r in
      let len = Codec.R.u64 r in
      let crc = Codec.R.u32 r in
      let payload = Codec.R.raw r len in
      if Crc.string payload <> crc then corrupt "%s: section %d CRC mismatch" path tag;
      if tag = tag_segments then segments := Some payload
      else if tag = tag_image then image := Some payload
      (* unknown tags are skipped: forward compatibility *)
    done;
    let segments =
      match !segments with
      | None -> corrupt "%s: no segments section" path
      | Some payload -> Codec.decode Seg_file.array_codec payload
    in
    if Array.length segments <> header.count then
      corrupt "%s: header says %d segments, section holds %d" path header.count
        (Array.length segments);
    { header; segments; image = !image }
  with Codec.Corrupt m -> corrupt "%s: malformed snapshot: %s" path m

(* Lenient variant of {!read} for repair: collects findings instead of
   raising, drops damaged sections instead of rejecting the file, and
   returns whatever survives. A corrupt image section costs only the
   rebuild fast path; corrupt segments cost the contents. *)
let salvage ~path =
  let findings = ref [] in
  let note fmt = Printf.ksprintf (fun m -> findings := m :: !findings) fmt in
  let contents =
    try
      let data =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let r = Codec.R.of_string data in
      if (try Codec.R.raw r 8 <> magic with Codec.Corrupt _ -> true) then begin
        note "not a segdb snapshot (bad magic)";
        None
      end
      else begin
        let header =
          try
            let ver = Codec.R.u32 r in
            if ver <> version then note "unsupported snapshot version %d" ver;
            let hlen = Codec.R.u32 r in
            let hp = Codec.R.raw r hlen in
            let hcrc = Codec.R.u32 r in
            if Crc.string hp <> hcrc then begin
              note "header CRC mismatch";
              None
            end
            else Some (Codec.decode header_codec hp)
          with Codec.Corrupt m ->
            note "malformed header: %s" m;
            None
        in
        match header with
        | None -> None
        | Some header -> (
            let segments = ref None and image = ref None in
            (try
               while Codec.R.remaining r > 0 do
                 let tag = Codec.R.u8 r in
                 let len = Codec.R.u64 r in
                 let crc = Codec.R.u32 r in
                 let payload = Codec.R.raw r len in
                 if Crc.string payload <> crc then
                   note "section %d: CRC mismatch (dropped)" tag
                 else if tag = tag_segments then segments := Some payload
                 else if tag = tag_image then image := Some payload
               done
             with Codec.Corrupt m -> note "truncated section table: %s" m);
            match !segments with
            | None ->
                note "no intact segments section";
                None
            | Some payload -> (
                match Codec.decode Seg_file.array_codec payload with
                | exception Codec.Corrupt m ->
                    note "segments section does not decode: %s" m;
                    None
                | segments ->
                    if Array.length segments <> header.count then
                      note "header says %d segments, section holds %d (using the \
                            section)"
                        header.count (Array.length segments);
                    Some { header; segments; image = !image }))
      end
    with Sys_error m ->
      note "unreadable: %s" m;
      None
  in
  (List.rev !findings, contents)
