(** Order-0 adaptive arithmetic coder.

    GR-T compresses memory-dump deltas with range encoding (§5). This is a
    real, self-contained implementation: an adaptive byte-frequency model
    (every count starts at 1, a coded symbol adds 24, and all counts halve
    once the total reaches 65535) driving a Witten–Neal–Cleary arithmetic
    coder with 32-bit interval registers and pending (underflow) bits.
    Compression ratios on the sparse, zero-dominated dumps the recorder
    produces are what make the paper's meta-only synchronization traffic
    numbers hold. The coded form is a varint of the input length followed
    by the code bits, zero-padded to a byte. *)

val encode : bytes -> bytes
(** [encode data] compresses [data]. The output embeds the original length.

    Both directions are memoized on content, by one two-generation memo
    each (no entry of one direction ever serves the other). Each is bounded
    by resident bytes (1 MiB, reported as [bound_bytes] by
    {!Memo_stats}), hits need full byte equality, a failing decode is
    never kept, and both sides are private copies: callers may mutate the
    buffers they pass and get back. The memos assume a single domain. *)

val decode : bytes -> bytes
(** [decode blob] inverts {!encode}. Raises [Failure] on corrupt input,
    in particular when [blob] is shorter than
    [min_coded_length n] for the length [n] it declares: no valid
    encoding is, so a tampered length field is rejected before the output
    is allocated, and a body of [b] bytes can never make [decode] allocate
    more than about [1422 * b] bytes of output (8 bits over the
    ~0.0056-bit floor a symbol costs once the model saturates). *)

val decode_into : bytes -> bytes -> unit
(** [decode_into blob dst] writes [decode blob] over [dst], which must be
    exactly as long as the plain bytes, without allocating them on a memo
    hit. The memo sees the same lookup, miss and entry as {!decode}. Raises
    [Failure] like {!decode}, or on a length mismatch, after which [dst]
    is unchanged. *)

val min_coded_length : int -> int
(** [min_coded_length n] is a lower bound on [Bytes.length (encode x)] for
    every [x] of length [n >= 0]; it is 17 for [n = 4096], exactly the
    coded size of an all-zero page. Raises [Invalid_argument] if [n < 0].

    Proof sketch. Before step [i] the model total [T_i] is at most
    [min (256 + 24 i) 65534], and the other 255 counts are each at least 1,
    so the coded symbol has probability [p_i <= (T_i - 255) / T_i]. After
    normalisation the range exceeds 2^30, so coding a symbol shrinks it by
    a factor of at most [p_i + 2^-30] (truncation adds at most 1). Every
    emitted or pending bit doubles the range, which never exceeds 2^32 and
    ends above 2^30; with the two final disambiguation bits the encoder
    therefore emits at least [sum_i -log2 (p_i + 2^-30)] bits. The bound is
    the length of the varint header plus that many bits rounded up to
    bytes. The per-step term is constant from the step where the total
    saturates, so the bound costs O(1) per call. *)
