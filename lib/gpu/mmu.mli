(** GPU MMU: LPAE-style 3-level page tables living in shared memory.

    The driver builds these tables (§2.1); the GPU walks them; snapshots of
    table pages are part of the recorded metastate (§2.3, §5). The virtual
    address space is 39-bit with 4 KiB pages; level 2 additionally supports
    2 MiB block mappings, which the runtime uses for large model-scale data
    buffers.

    Descriptor bits (an idealized LPAE):
    - bits 1:0 — 0b11 = table (L1/L2) or page (L3); 0b01 = 2 MiB block (L2)
    - bit 6 — writable
    - bit 7 — executable (GPU shader code; metastate detection keys on this)
    - bit 8 — cacheable
    - bit 10 — access flag (must be set under {!Sku.Lpae_v8})
    - bits 39:12 — output physical address *)

type flags = { writable : bool; executable : bool; cacheable : bool }

val rw_data : flags
val ro_data : flags
val rx_code : flags

type fault = Unmapped | Permission of string | Bad_format

val pp_fault : Format.formatter -> fault -> unit

type t
(** A page-table hierarchy rooted in shared memory. *)

val create : Mem.t -> fmt:Sku.pt_format -> t
(** Allocates the root table page. *)

val root_pa : t -> int64
val format : t -> Sku.pt_format

val of_root : Mem.t -> fmt:Sku.pt_format -> root:int64 -> t
(** View an existing hierarchy (the GPU side: TRANSTAB register value). *)

val map_page : t -> va:int64 -> pa:int64 -> flags:flags -> unit
(** Map one 4 KiB page. Raises [Invalid_argument] on misaligned inputs. *)

val map_block : t -> va:int64 -> pa:int64 -> flags:flags -> unit
(** Map one 2 MiB block. *)

val unmap_page : t -> va:int64 -> unit
(** Clears the L3 entry (or the block entry covering the page). *)

val translate : t -> va:int64 -> access:[ `Read | `Write | `Exec ] -> (int64, fault) result
(** Walk the tables. Enforces validity, permissions and (v8) access flag. *)

val translate_int : t -> va:int -> access:[ `Read | `Write | `Exec ] -> int
(** {!translate} without allocation: the PA, or a negative number where
    {!translate} gives an [Error] (call it for the fault). [va] is
    [Int64.to_int] of the VA; only its bits 38:0 take part in the walk. *)

val table_pages : t -> int64 list
(** PFNs of every table page reachable from the root — the page-table part
    of the metastate. *)

val iter_table_pfns : t -> (int -> unit) -> unit
(** {!table_pages} without the list: applies [f] to every live table page's
    pfn as a native int, root first then walk order (each table reached
    once — unsorted). *)

val iter_child_tables : Mem.t -> int -> (int -> int -> unit) -> unit
(** [iter_child_tables mem pfn f] calls [f i child] for each descriptor
    slot [i] of the table page [pfn] that holds a table descriptor, in slot
    order, with the pfn [child] it points to (at the root these are the
    level-2 tables, at level 2 the level-3 ones; block and page entries
    are skipped). Nothing if the page was never materialized. It is the
    table-descriptor decoder {!iter_table_pfns} uses; memsync re-reads
    with it only the table pages whose generation stamp moved. *)

val mapped_spans : t -> (int64 * int * flags) list
(** [(va, bytes, flags)] for every mapped leaf, coalesced over contiguous
    identical mappings; used by metastate classification. *)
