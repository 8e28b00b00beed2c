(** Non-cryptographic and keyed hashing used across the simulator.

    [fnv1a_*] are used for content signatures (page deltas, commit-site
    signatures). [hmac] is a keyed construction over FNV; it stands in for a
    real HMAC in the simulated trust chain — the point is to exercise the
    sign/verify control flow, not to provide actual cryptographic strength. *)

val fnv1a_bytes : ?seed:int64 -> bytes -> int64
(** Hash an entire byte buffer (64-bit FNV-1a, or the same byte steps from
    [seed]). Zero words cost one multiply each; the digest is the
    byte-at-a-time one. *)

val fnv1a_sub : bytes -> pos:int -> len:int -> int64
(** Hash a slice of a byte buffer. Raises [Invalid_argument] unless
    [0 <= pos], [0 <= len] and [pos + len <= Bytes.length b]. *)

val fnv1a_sub_matches : bytes -> pos:int -> len:int -> hash_at:int -> bool
(** Whether [fnv1a_sub b ~pos ~len] equals the little-endian digest stored
    at [hash_at] in the same buffer; allocates nothing. Raises
    [Invalid_argument] if either range is out of bounds. *)

val fnv1a_string : string -> int64

val combine : int64 -> int64 -> int64
(** Mix two hash values into one (order-sensitive). *)

val hmac : ?len:int -> key:string -> bytes -> int64
(** Keyed hash: distinct keys produce unrelated digests for the same data.
    [len] (default: the whole buffer) hashes that prefix in place;
    [Invalid_argument] if it is out of bounds, as in {!fnv1a_sub}. *)

type merkle
(** A streaming Merkle root: pairwise {!combine} level by level, an odd
    node promoted; one leaf is its own root, none give
    [fnv1a_bytes Bytes.empty]. *)

val merkle_create : int -> merkle
(** An empty fold with room for the given number of leaves. *)

val merkle_push_at : merkle -> bytes -> int -> unit
(** Push the next leaf, the little-endian digest at the given offset;
    allocates nothing. *)

val merkle_root : merkle -> int64

val quick : ?seed:int -> bytes -> int
(** Fast word-at-a-time content key for process-internal memo tables. This
    is NOT a wire-format hash — it may change between versions — and
    collisions are expected to be resolved by the caller (compare the full
    input before trusting a hit). Roughly 8x the throughput of the
    byte-sequential FNV-1a. *)

val quick_sub : ?seed:int -> bytes -> pos:int -> len:int -> int
(** [quick] over the slice [pos, pos + len) in place, with no copy. Raises
    [Invalid_argument] if the slice is out of bounds. *)

val crc32 : bytes -> int32
(** CRC-32 (IEEE polynomial), used for framing checksums on the simulated
    network channel. *)
