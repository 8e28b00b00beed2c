(** Register map of the modeled Mali-style GPU.

    The layout follows the Midgard/Bifrost job-manager architecture: a GPU
    control block (identity, features, power domains, cache maintenance), a
    job control block (interrupt registers plus per-slot job registers) and
    an MMU block (interrupt registers plus per-address-space registers).
    Offsets are byte offsets from the GPU MMIO base. *)

type t = int
(** A register is its byte offset. *)

(** The exit condition of a polling loop on a register: the driver's
    loops, the recorder's offloaded ones and the [Poll] entries a recording
    carries all test it with {!poll_met}. *)
type poll_cond =
  | Bits_set  (** wait until [value & mask = mask] *)
  | Bits_clear  (** wait until [value & mask = 0] *)

val poll_met : poll_cond -> mask:int64 -> int64 -> bool
(** [poll_met cond ~mask v] is whether the value [v] read from the polled
    register ends the loop. *)

(* GPU control block *)

val gpu_id : t
val l2_features : t
val tiler_features : t
val mem_features : t
val mmu_features : t
val as_present : t
val gpu_irq_rawstat : t
val gpu_irq_clear : t
val gpu_irq_mask : t
val gpu_irq_status : t
val gpu_command : t
val gpu_status : t
val latest_flush_id : t
val shader_present_lo : t
val shader_present_hi : t
val tiler_present_lo : t
val l2_present_lo : t
val shader_ready_lo : t
val tiler_ready_lo : t
val l2_ready_lo : t
val shader_pwron_lo : t
val tiler_pwron_lo : t
val l2_pwron_lo : t
val shader_pwroff_lo : t
val tiler_pwroff_lo : t
val l2_pwroff_lo : t
val shader_config : t
val tiler_config : t
val l2_mmu_config : t
val mmu_config : t
val thread_max_threads : t
val thread_max_workgroup_size : t
val thread_features : t
val texture_features : int -> t
(** [texture_features i] for i in 0..3. *)

val js_features : int -> t
(** [js_features i] for i in 0..15 — per-slot capability words the probe
    scans even for unimplemented slots. *)

(* Performance-counter setup block *)

val prfcnt_base_lo : t
val prfcnt_base_hi : t
val prfcnt_config : t
val prfcnt_jm_en : t
val prfcnt_shader_en : t
val prfcnt_tiler_en : t
val prfcnt_mmu_l2_en : t

(* GPU_IRQ bits *)

val irq_reset_completed : int64
val irq_power_changed_all : int64
val irq_clean_caches_completed : int64

(* GPU_COMMAND codes *)

val cmd_soft_reset : int64
val cmd_hard_reset : int64
val cmd_clean_caches : int64
val cmd_clean_inv_caches : int64

(* Job control block *)

val job_irq_rawstat : t
val job_irq_clear : t
val job_irq_mask : t
val job_irq_status : t
val job_slot_count : int

val js_head_lo : int -> t
val js_head_hi : int -> t
val js_tail_lo : int -> t
val js_config : int -> t
val js_status : int -> t
val js_command : int -> t
val js_head_next_lo : int -> t
val js_head_next_hi : int -> t
val js_affinity_next_lo : int -> t
val js_config_next : int -> t
val js_command_next : int -> t

val js_cmd_start : int64

val js_status_idle : int64
val js_status_active : int64
val js_status_done : int64
val js_status_fault_bad_descriptor : int64

(* MMU block *)

val mmu_irq_rawstat : t
val mmu_irq_clear : t
val mmu_irq_mask : t
val mmu_irq_status : t
val as_count : int

val as_transtab_lo : int -> t
val as_transtab_hi : int -> t
val as_memattr_lo : int -> t
val as_lockaddr_lo : int -> t
val as_command : int -> t
val as_faultstatus : int -> t
val as_faultaddress_lo : int -> t
val as_status : int -> t

val as_cmd_update : int64
val as_cmd_lock : int64
val as_cmd_unlock : int64
val as_cmd_flush_pt : int64
val as_cmd_flush_mem : int64

val as_status_flush_active : int64

val name : t -> string
(** Human-readable register name for traces and dumps. *)

val is_nondeterministic : t -> bool
(** Registers whose read values legitimately differ between record runs
    (e.g. [latest_flush_id]); the replayer skips verification on these and
    the speculation engine will never build confidence on them. *)
