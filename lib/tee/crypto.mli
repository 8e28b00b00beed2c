(** Simulation-grade cryptography for the trust chain.

    These primitives exercise the paper's *control flow* — attested
    channels, signed recordings, sealed messages — with keyed constructions
    over non-cryptographic hashes. They are NOT real cryptography and must
    never be used outside this simulator; the point is that tampering is
    *detected* in the model, so the security tests can exercise both
    accept and reject paths. *)

type key = string

val derive : key -> string -> key
(** [derive k label] — independent subkey derivation. *)

val mac : ?len:int -> key:key -> bytes -> int64
(** [len] MACs that prefix of the buffer, without copying it. *)

val verify : key:key -> bytes -> int64 -> bool

val seal : key:key -> nonce:int64 -> bytes -> bytes
(** Authenticated "encryption": keystream-XOR plus an appended MAC over the
    ciphertext. Output is ciphertext ∥ mac(8) ∥ nonce(8). *)

val open_ : key:key -> bytes -> (bytes, string) result

val sealed_overhead : int
