(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]).

    Checksums guard every on-disk artifact of the persistence layer:
    snapshot sections and {!Wal} records.
    Values are the unsigned 32-bit checksum carried in an [int]. *)

val init : int
(** Accumulator for an empty input. *)

val update : int -> string -> pos:int -> len:int -> int
(** Folds [len] bytes of the string starting at [pos] into the
    accumulator. *)

val finish : int -> int
(** Final checksum of an accumulator. *)

val string : string -> int
(** One-shot checksum of a whole string:
    [finish (update init s ~pos:0 ~len:(String.length s))].
    [string "123456789" = 0xCBF43926] (the standard check value). *)

val bytes : Bytes.t -> pos:int -> len:int -> int
(** One-shot checksum of a byte range. *)
