(** Binary encoding for on-disk artifacts.

    Little-endian, length-prefixed, with no framing of its own — the
    consumers ({!Wal} records, snapshot sections) add their own headers
    and CRCs. A codec pairs a writer into a [Buffer.t] with a reader
    over an immutable string; malformed input raises {!Corrupt} rather
    than returning partial values, so a CRC mismatch and a decode
    failure surface identically to callers. *)

exception Corrupt of string
(** Raised by readers on truncated or malformed input. *)

(** Low-level writers, appending to a [Buffer.t]. *)
module W : sig
  val u8 : Buffer.t -> int -> unit
  val u32 : Buffer.t -> int -> unit
  (** Lower 32 bits, little-endian. *)

  val u64 : Buffer.t -> int -> unit
  (** Full OCaml [int], sign-extended to 64 bits, little-endian. *)

  val f64 : Buffer.t -> float -> unit
  (** IEEE-754 bits, little-endian. *)

  val str : Buffer.t -> string -> unit
  (** [u32] byte length, then the raw bytes. *)
end

(** Low-level readers over a string with a cursor. *)
module R : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  (** A reader over [len] bytes from [pos] (default: the rest of the
      string). Raises [Invalid_argument] when the range is not inside
      the string. *)

  val pos : t -> int
  val remaining : t -> int
  val u8 : t -> int
  val u32 : t -> int
  val u64 : t -> int
  val f64 : t -> float
  val str : t -> string
  val raw : t -> int -> string
  (** [raw r n] reads exactly [n] bytes. *)
end

type 'a t = { write : Buffer.t -> 'a -> unit; read : R.t -> 'a }

val int : int t
val float : float t
val bool : bool t
val string : string t
val pair : 'a t -> 'b t -> ('a * 'b) t
val array : 'a t -> 'a array t
val list : 'a t -> 'a list t

val encode : 'a t -> 'a -> string

val decode : 'a t -> string -> 'a
(** Raises {!Corrupt} on trailing bytes as well as on truncation. *)
