type t = { fd : Unix.file_descr; sync_every_append : bool; mutable bytes : int }

let c_append = Probe.counter "wal.append"
let c_replayed = Probe.counter "wal.replayed"
let sp_append = Failpoint.site "wal.append"

let frame_overhead = 8 (* len u32 | crc u32 *)

(* Longest valid prefix of [data]: the records it frames and the byte
   offset where the first torn or corrupt frame starts. *)
let valid_prefix data =
  let len = String.length data in
  let records = ref [] in
  let pos = ref 0 in
  let stop = ref false in
  while not !stop do
    if !pos + frame_overhead > len then stop := true
    else begin
      let r = Codec.R.of_string ~pos:!pos data in
      let n = Codec.R.u32 r in
      let crc = Codec.R.u32 r in
      if n > len - !pos - frame_overhead then stop := true
      else begin
        let payload = String.sub data (!pos + frame_overhead) n in
        if Crc.string payload <> crc then stop := true
        else begin
          records := payload :: !records;
          pos := !pos + frame_overhead + n
        end
      end
    end
  done;
  (List.rev !records, !pos)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let scan path =
  if not (Sys.file_exists path) then []
  else fst (valid_prefix (read_file path))

(* The log is a total order, so "replay from LSN [from]" is just the
   suffix after dropping the first [from] records. *)
let scan_from path ~from =
  let rec drop n = function
    | l when n <= 0 -> l
    | [] -> []
    | _ :: tl -> drop (n - 1) tl
  in
  drop from (scan path)

let open_ ?(sync = true) path =
  let existing = if Sys.file_exists path then read_file path else "" in
  let records, valid = valid_prefix existing in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 in
  if String.length existing > valid then begin
    Unix.ftruncate fd valid;
    Segdb_obs.Log.warn ~comp:"wal" "torn tail truncated" (fun () ->
        [
          Segdb_obs.Log.s "path" path;
          Segdb_obs.Log.i "dropped_bytes" (String.length existing - valid);
          Segdb_obs.Log.i "valid_bytes" valid;
        ])
  end;
  ignore (Unix.lseek fd valid Unix.SEEK_SET);
  if records <> [] then
    Segdb_obs.Log.info ~comp:"wal" "log replayed" (fun () ->
        [
          Segdb_obs.Log.s "path" path;
          Segdb_obs.Log.i "records" (List.length records);
          Segdb_obs.Log.i "bytes" valid;
        ]);
  Probe.bump_by c_replayed (List.length records);
  ({ fd; sync_every_append = sync; bytes = valid }, records)

let append t payload =
  Probe.bump c_append;
  Segdb_obs.Trace.with_span "wal.append" @@ fun () ->
  let b = Buffer.create (frame_overhead + String.length payload) in
  Codec.W.u32 b (String.length payload);
  Codec.W.u32 b (Crc.string payload);
  Buffer.add_string b payload;
  (* The explicit offset pins the frame to the log's logical end: a
     transient error retries the whole frame from its start instead of
     appending a torn partial copy, and EINTR/EAGAIN/short writes are
     handled by the wrapper (a persistently stalled write errors out
     rather than spinning). *)
  Failpoint.Io.write_all ~site:sp_append t.fd ~off:t.bytes (Buffer.to_bytes b);
  t.bytes <- t.bytes + Buffer.length b;
  if t.sync_every_append then Failpoint.Io.fsync t.fd

let reset t =
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  t.bytes <- 0;
  Failpoint.Io.fsync t.fd

(* ---------------- offline audit ---------------- *)

type audit = { audit_records : int; valid_bytes : int; file_bytes : int }

let audit path =
  if not (Sys.file_exists path) then
    { audit_records = 0; valid_bytes = 0; file_bytes = 0 }
  else
    let data = read_file path in
    let records, valid = valid_prefix data in
    {
      audit_records = List.length records;
      valid_bytes = valid;
      file_bytes = String.length data;
    }

let size t = t.bytes
let close t = Unix.close t.fd
