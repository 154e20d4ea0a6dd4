(** Snapshot files: the on-disk form of a built [Segdb.t].

    Layout (all integers little-endian):

    {v
    "SEGDBSNP" | version u32
    header_len u32 | header | crc32(header) u32
    sections until EOF, each: tag u8 | len u64 | crc32(payload) u32 | payload
    v}

    The header records the backend tag, block size, pool capacity,
    cascade flag, segment count, and an MD5 digest of the executable
    that wrote the file. Two sections are defined: the {e segments}
    section (tag 1, mandatory) holds every stored segment in the binary
    layout of {!Seg_file.array_codec} — the authoritative, binary-
    independent contents; the {e image} section (tag 2, optional) holds
    a marshaled image of the live index, valid only for the executable
    that wrote it (closures are marshaled), which is what makes
    reopening without a rebuild possible. [Segdb.open_db] restores the
    image when the digest matches the running executable and falls back
    to rebuilding from the segments section otherwise.

    Saves are atomic: the file is written beside the target and renamed
    over it, so a crashed save leaves the previous snapshot intact. *)

exception Corrupt_snapshot of string

type header = {
  backend : string;
  block : int;
  pool_blocks : int;
  cascade : bool;
  count : int;  (** segments in the segments section *)
  digest : string;  (** MD5 hex of the writing executable; guards the image *)
}

type contents = {
  header : header;
  segments : Segdb_geom.Segment.t array;
  image : string option;
}

val is_snapshot : string -> bool
(** Whether the file at the path starts with the snapshot magic — how
    the server and the CLI tell a snapshot from a text segment file.
    Raises [Sys_error] if the file cannot be opened. *)

val self_digest : unit -> string
(** MD5 hex of the running executable (memoized). *)

val write :
  path:string ->
  header ->
  segments:Segdb_geom.Segment.t array ->
  image:string option ->
  unit

val read : path:string -> contents
(** The contents of a pristine file: {!salvage}'s walk, which checks
    every section's CRC before use, with no finding. Any finding raises
    {!Corrupt_snapshot} naming the path and the first finding. Raises
    [Sys_error] if the file cannot be read. *)

val salvage : path:string -> string list * contents option
(** Best-effort read for repair: returns findings (empty means the file
    is pristine) plus whatever survives. A damaged image section is
    dropped — costing only the rebuild fast path — and a segment-count
    mismatch trusts the section; only a destroyed segments section (or
    header) loses the contents. Never raises on damage; an unreadable
    file is one more finding. *)
