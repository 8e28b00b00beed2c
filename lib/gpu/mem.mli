(** Sparse physical memory shared by CPU and GPU.

    Pages are 4 KiB and materialized on demand. The store tracks dirty pages
    (for cache-maintenance cost modeling) and stamps every page write with a
    generation (for memsync's skip of unchanged pages). Physical addresses
    are [int64]; unmapped reads return zeroes, like DRAM scrubbed at boot.
    Nothing is rolled back in place: misprediction and link-down recovery
    build a fresh store and re-execute the validated log (§4.2). *)

val page_size : int
val page_shift : int

type t

val create : unit -> t

val alloc_pages : t -> int -> int64
(** [alloc_pages t n] reserves [n] fresh zeroed pages and returns the
    physical address of the first. Allocation is a simple bump pointer — the
    simulator never frees physical pages within a session. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int64
val write_u32 : t -> int64 -> int64 -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit
val read_f32 : t -> int64 -> float
val write_f32 : t -> int64 -> float -> unit
val write_f32_array : t -> int64 -> float array -> unit
(** Bulk f32 store: one page resolution (and one dirty/generation stamp)
    per page touched instead of per element. Equivalent to a [write_f32]
    loop. *)

val read_f32_array : t -> int64 -> int -> float array
(** Bulk f32 load, the read-side counterpart of [write_f32_array]. *)

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

val page_of_addr : int64 -> int64
(** Page frame number containing an address. *)

(** {2 Unboxed hot-path variants}

    The store is a dense int-indexed array with a spill table for sparse
    high PFNs; these entry points skip the [int64] boxing and option
    allocation of the classic API. PFNs always fit a native [int] (an
    address shifted right by {!page_shift} is below 2{^52}). *)

val page_index : int64 -> int
(** [page_index addr] is {!page_of_addr} as a native int. *)

val dense_limit : int
(** PFNs below this bound live in the dense arrays; higher ones spill. *)

val borrow_ro : t -> int -> bytes
(** Allocation-free {!page_ro}: borrow the live backing buffer by int PFN,
    or the [Bytes.empty] sentinel when the page was never materialized
    (test with physical equality against [Bytes.empty]). Same borrow rules
    as {!page_ro}. *)

val page_gen_at : t -> int -> int
(** Unboxed {!page_gen} by int PFN ([0] if the page was never written). *)

val next_moved : t -> int array -> len:int -> seen:int array -> int -> int
(** [next_moved t pfns ~len ~seen i] is the first index [j] in [[i, len)]
    whose page [p = pfns.(j)] has moved past what an observer recorded:
    [p] lies outside [seen], or {!page_gen_at} [p] is above [seen.(p)].
    [len] if none has. One loop over the pfns, for scans that skip
    unchanged pages. *)

val get_page : t -> int64 -> bytes
(** [get_page t pfn] returns a copy of the page (zeroes if never written). *)

val page_ro : t -> int64 -> bytes option
(** Borrow the live backing buffer of a materialized page, for read-side
    kernel streams. The buffer stays valid (and current) across [set_page],
    which blits in place, and must not be written through. *)

val page_rw : t -> int64 -> bytes
(** Borrow the live backing buffer for writing, materializing the page if
    needed. Marks the page dirty and stamps a fresh generation once, in
    place of the per-write bookkeeping the borrower skips — equivalent at
    page granularity. Raises {!Protected_page_write} on protected pages. *)

val set_page : t -> int64 -> bytes -> unit
(** Install page contents (must be exactly [page_size] bytes). *)

val mark_dirty : t -> int -> unit
(** [mark_dirty t pfn] is {!set_page} of the bytes the page already holds,
    except that the generation stamp stays: the page joins the dirty set
    (the cache flush it costs), and a protected page raises
    {!Protected_page_write}. For re-installs that skip unchanged pages. *)

val materialized_pages : t -> int64 list
(** PFNs of all pages that have been written, sorted. *)

val dirty_pages : t -> int64 list
(** PFNs dirtied since the last [clear_dirty], sorted. *)

val clear_dirty : t -> unit
val dirty_bytes : t -> int

val write_gen : t -> int64
(** Monotonic write-generation counter: bumped on every page write. Never
    reset, unlike the dirty set, so multiple observers can each remember
    the stamp they last examined. *)

val page_gen : t -> int64 -> int64
(** Generation stamp of the last write touching the page ([0L] if it was
    never written). Two rules hold for every page: stamps only increase,
    and a stamp that has not moved since an observer last looked means
    identical bytes. *)

exception Protected_page_write of int64
(** Raised on a write to a protected page — GR-T's continuous validation
    (§5): after a memory dump is shipped, the dumped region is unmapped
    from the CPU so any spurious access traps instead of silently
    diverging the two parties' views. *)

val protect_pages : t -> int64 list -> unit
(** Add PFNs to the protected set. *)

val protect_page : t -> int -> unit
(** [protect_pages] for one PFN, unboxed; allocates nothing below
    {!dense_limit}. *)

val unprotect_all : t -> unit
(** Empty the protected set in O(1): protection is an epoch per page, and
    this moves the epoch on. Allocates nothing. *)

val is_protected : t -> int -> bool
(** Whether a write to the page at an int PFN raises
    {!Protected_page_write}. *)

val protected_pfns : t -> int64 list
(** The protected set, sorted; built on each call by a scan of every dense
    page (a diagnostic, not a hot path). *)
