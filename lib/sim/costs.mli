(** Canonical latency constants for on-device operations.

    These are the sub-microsecond costs the paper's §3.3 contrasts with
    network delays. Centralizing them keeps the native, record and replay
    paths comparable. *)

val mmio_access_ns : int64
(** One uncached register read or write over the SoC interconnect. *)

val cache_flush_ns_per_kb : int64
(** GPU L2 clean+invalidate throughput. *)

val driver_submit_overhead_ns : int64
(** Kernel-side cost of one job submission (context switch, locking). *)

val runtime_job_prep_ns : int64
(** Userspace runtime cost per job: command emission, dependency setup. *)

val jit_compile_ns_per_kernel : int64
(** One-time JIT compilation of a hardware-neutral kernel for a SKU. *)

val replayer_step_ns : int64
(** Replayer cost to apply one recorded interaction. *)

val gpu_flops_per_s : float
(** Modeled shader throughput of the baseline SKU (Mali G71 MP8-class,
    FP32). Per-SKU scaling happens in [Grt_gpu.Sku]. *)

val gpu_job_fixed_ns : int64
(** Fixed per-job GPU overhead: fetch descriptor, schedule cores, raise
    IRQ. *)

val link_rto_min_s : float
(** Floor for the retransmission timeout. *)

val link_rto_rtt_multiplier : float
(** Initial RTO as a multiple of the profile RTT. *)

val link_rto_backoff : float
(** Multiplicative backoff applied to the RTO after each timeout. *)

val link_rto_max_s : float
(** Ceiling for the backed-off RTO. *)

val link_max_attempts : int
(** Send attempts (first try + retransmissions) before the link gives up
    and raises [Grt_net.Link.Link_down]. *)
