(** GPU SKU catalog.

    §2.4 stresses that recordings are SKU-specific: shader-core counts drive
    JIT tiling decisions, page-table format revisions differ, and quirk
    registers take different reset values. The catalog models a family of
    Mali-like SKUs sharing one driver, mirroring how the Bifrost kbase driver
    supports several GPUs (§3). *)

type pt_format = Lpae_v7 | Lpae_v8
(** Page-table descriptor revision. Both are 3-level/4 KiB formats; v8 adds
    an access-flag bit the walker enforces. *)

type t = {
  name : string;
  gpu_id : int64;  (** identity register value: product | revision *)
  shader_cores : int;
  tiler_units : int;
  l2_slices : int;
  address_spaces : int;  (** how many AS slots the MMU exposes (<= 8) *)
  clock_mhz : int;
  flops_scale : float;  (** shader throughput relative to the G71 MP8 baseline *)
  pt_format : pt_format;
  quirk_shader_config : int64;  (** reset value of SHADER_CONFIG *)
  quirk_mmu_config : int64;  (** reset value of MMU_CONFIG *)
  needs_snoop_disparity : bool;  (** erratum: MMU_CONFIG needs bit 4 set *)
  power_up_us : int;  (** per-domain power transition latency *)
  reset_us : int;
}

val g71_mp8 : t
(** The paper's client GPU (HiKey960). Baseline for throughput. *)

val g52_mp4 : t
val g31_mp2 : t
val g76_mp12 : t
val g72_mp12 : t

val all : t list

val find : string -> t option
val shader_present_mask : t -> int64
val tiler_present_mask : t -> int64
val l2_present_mask : t -> int64
val flops_per_s : t -> float

val pp : Format.formatter -> t -> unit

val find_by_id : int64 -> t option
(** Look a SKU up by its identity-register value. *)
