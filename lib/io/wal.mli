(** Write-ahead log: an append-only file of CRC-framed records.

    Each record is framed as [len: u32 | crc32(payload): u32 | payload].
    A reader accepts the longest prefix of intact frames and treats
    everything after the first torn or corrupt frame — a crash mid-
    [append] — as garbage, so recovery after a torn write is: replay the
    valid prefix, truncate the rest. {!open_} does exactly that.

    The databases log an operation {e before} applying it to the index;
    replay-on-open then restores every acknowledged operation after a
    crash, and a checkpoint ({!reset} after a snapshot) bounds the log's
    length. Payloads are opaque bytes — the caller owns the record
    encoding (see [Segdb]'s insert/delete records). *)

type t

val open_ : ?sync:bool -> string -> t * string list
(** Opens (creating if absent) the log at the path, repairs a torn tail
    by truncating the file to its valid prefix, and returns the handle
    together with the surviving records in append order. When [sync] is
    true (the default) every {!append} is followed by an [fsync], which
    is what makes an insert "acknowledged"; pass [~sync:false] for bulk
    loads and tests. *)

val scan : string -> string list
(** The valid records of the log at the path, in order, without opening
    it for append or repairing it. [[]] if the file does not exist. *)

val scan_from : string -> from:int -> string list
(** {!scan} minus the first [from] records — replay from an arbitrary
    LSN offset into the log's total order. [[]] when [from] is at or
    past the end; a negative [from] behaves like 0. Backs replication
    catch-up from a WAL tail. *)

type audit = {
  audit_records : int;  (** intact records in the valid prefix *)
  valid_bytes : int;  (** bytes the valid prefix spans *)
  file_bytes : int;  (** actual file length; any excess is a torn tail *)
}

val audit : string -> audit
(** Non-mutating inspection of the log at the path (all zeros if the
    file does not exist): what {!open_} would replay and how much torn
    tail it would truncate. Backs [recover --dry-run]. *)

val append : t -> string -> unit
(** Appends one record (durably, if the log was opened with [sync]). *)

val reset : t -> unit
(** Checkpoint: truncates the log to empty. *)

val size : t -> int
(** Current length of the log in bytes. *)

val close : t -> unit
