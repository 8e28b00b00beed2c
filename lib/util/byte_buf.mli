(** Growable byte buffer with little-endian primitive accessors, plus a
    cursor-based reader. This is the wire-format workhorse for recordings,
    network messages and memory dumps. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val clear : t -> unit
val contents : t -> bytes
(** [contents t] copies the written region into a fresh [bytes]. *)

val release : t -> bytes
(** The written region, without a copy when it fills the buffer's storage
    exactly (as [n] bytes written to [create ~capacity:n ()] do), else as
    {!contents}. The result may share storage with [t]: write nothing to
    [t] afterwards. *)

val add_u8 : t -> int -> unit
val add_u16 : t -> int -> unit
val add_u32 : t -> int -> unit
val add_i64 : t -> int64 -> unit
val add_varint : t -> int -> unit
(** LEB128-style unsigned varint; [v] must be non-negative. *)

val varint_size : int -> int
(** The number of bytes {!add_varint} writes for [v]. *)

val add_bytes : t -> bytes -> unit
val add_sub : t -> bytes -> pos:int -> len:int -> unit
val add_string : t -> string -> unit
(** Length-prefixed string. *)

(** Sequential reader over a [bytes] value. Every reader raises [Failure]
    on truncated input, [varint] also on a run longer than 9 bytes or a
    negative result, and [bytes] on a negative length — never
    [Invalid_argument]. *)
module Reader : sig
  type r

  val of_bytes : bytes -> r
  val pos : r -> int
  val remaining : r -> int
  val u8 : r -> int
  val u16 : r -> int
  val u32 : r -> int
  val i64 : r -> int64
  val varint : r -> int

  val skip : r -> int -> unit
  (** Step over [n] bytes, failing like [bytes] if fewer are left. *)

  val bytes : r -> int -> bytes
  val string : r -> string
end
