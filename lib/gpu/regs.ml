type t = int

type poll_cond = Bits_set | Bits_clear

let poll_met cond ~mask v =
  match cond with
  | Bits_set -> Int64.logand v mask = mask
  | Bits_clear -> Int64.logand v mask = 0L

(* GPU control block: 0x0000 .. 0x0FFF *)

let gpu_id = 0x0000
let l2_features = 0x0004
let tiler_features = 0x000C
let mem_features = 0x0010
let mmu_features = 0x0014
let as_present = 0x0018
let gpu_irq_rawstat = 0x0020
let gpu_irq_clear = 0x0024
let gpu_irq_mask = 0x0028
let gpu_irq_status = 0x002C
let gpu_command = 0x0030
let gpu_status = 0x0034
let latest_flush_id = 0x0038
let thread_max_threads = 0x00A0
let thread_max_workgroup_size = 0x00A4
let thread_features = 0x00AC

let texture_features i =
  if i < 0 || i > 3 then invalid_arg "Regs.texture_features";
  0x00B0 + (4 * i)

let js_features i =
  if i < 0 || i > 15 then invalid_arg "Regs.js_features";
  0x00C0 + (4 * i)

let prfcnt_base_lo = 0x0060
let prfcnt_base_hi = 0x0064
let prfcnt_config = 0x0068
let prfcnt_jm_en = 0x006C
let prfcnt_shader_en = 0x0070
let prfcnt_tiler_en = 0x0074
let prfcnt_mmu_l2_en = 0x007C

let shader_present_lo = 0x0100
let shader_present_hi = 0x0104
let tiler_present_lo = 0x0110
let l2_present_lo = 0x0120
let shader_ready_lo = 0x0140
let tiler_ready_lo = 0x0150
let l2_ready_lo = 0x0160
let shader_pwron_lo = 0x0180
let tiler_pwron_lo = 0x0190
let l2_pwron_lo = 0x01A0
let shader_pwroff_lo = 0x01C0
let tiler_pwroff_lo = 0x01D0
let l2_pwroff_lo = 0x01E0
let shader_config = 0x0F04
let tiler_config = 0x0F08
let l2_mmu_config = 0x0F0C
let mmu_config = 0x0F10

let irq_reset_completed = 0x100L
let irq_power_changed_all = 0x400L
let irq_clean_caches_completed = 0x20000L

let cmd_soft_reset = 1L
let cmd_hard_reset = 2L
let cmd_clean_caches = 7L
let cmd_clean_inv_caches = 8L

(* Job control block: 0x1000 .. 0x1FFF *)

let job_irq_rawstat = 0x1000
let job_irq_clear = 0x1004
let job_irq_mask = 0x1008
let job_irq_status = 0x100C
let job_slot_count = 3

let js_base i =
  if i < 0 || i >= job_slot_count then invalid_arg "Regs.js_base";
  0x1800 + (i * 0x80)

let js_head_lo i = js_base i + 0x00
let js_head_hi i = js_base i + 0x04
let js_tail_lo i = js_base i + 0x08
let js_config i = js_base i + 0x18
let js_status i = js_base i + 0x24
let js_command i = js_base i + 0x20
let js_head_next_lo i = js_base i + 0x40
let js_head_next_hi i = js_base i + 0x44
let js_affinity_next_lo i = js_base i + 0x50
let js_config_next i = js_base i + 0x58
let js_command_next i = js_base i + 0x60

let js_cmd_start = 1L

let js_status_idle = 0x00L
let js_status_active = 0x08L
let js_status_done = 0x01L
let js_status_fault_bad_descriptor = 0x41L

(* MMU block: 0x2000 .. 0x2FFF *)

let mmu_irq_rawstat = 0x2000
let mmu_irq_clear = 0x2004
let mmu_irq_mask = 0x2008
let mmu_irq_status = 0x200C
let as_count = 8

let as_base i =
  if i < 0 || i >= as_count then invalid_arg "Regs.as_base";
  0x2400 + (i * 0x40)

let as_transtab_lo i = as_base i + 0x00
let as_transtab_hi i = as_base i + 0x04
let as_memattr_lo i = as_base i + 0x08
let as_lockaddr_lo i = as_base i + 0x10
let as_command i = as_base i + 0x18
let as_faultstatus i = as_base i + 0x1C
let as_faultaddress_lo i = as_base i + 0x20
let as_status i = as_base i + 0x28

let as_cmd_update = 1L
let as_cmd_lock = 2L
let as_cmd_unlock = 3L
let as_cmd_flush_pt = 4L
let as_cmd_flush_mem = 5L

let as_status_flush_active = 1L

let name_uncached r =
  let in_block base count stride lo hi f =
    (* Find a register inside a repeated block, e.g. job slots. *)
    if r >= base && r < base + (count * stride) then
      let idx = (r - base) / stride in
      let off = (r - base) mod stride in
      if off >= lo && off <= hi then Some (f idx off) else None
    else None
  in
  let fixed =
    [
      (gpu_id, "GPU_ID");
      (l2_features, "L2_FEATURES");
      (tiler_features, "TILER_FEATURES");
      (mem_features, "MEM_FEATURES");
      (mmu_features, "MMU_FEATURES");
      (as_present, "AS_PRESENT");
      (gpu_irq_rawstat, "GPU_IRQ_RAWSTAT");
      (gpu_irq_clear, "GPU_IRQ_CLEAR");
      (gpu_irq_mask, "GPU_IRQ_MASK");
      (gpu_irq_status, "GPU_IRQ_STATUS");
      (gpu_command, "GPU_COMMAND");
      (gpu_status, "GPU_STATUS");
      (latest_flush_id, "LATEST_FLUSH_ID");
      (thread_max_threads, "THREAD_MAX_THREADS");
      (thread_max_workgroup_size, "THREAD_MAX_WORKGROUP_SIZE");
      (thread_features, "THREAD_FEATURES");
      (shader_present_lo, "SHADER_PRESENT_LO");
      (shader_present_hi, "SHADER_PRESENT_HI");
      (tiler_present_lo, "TILER_PRESENT_LO");
      (l2_present_lo, "L2_PRESENT_LO");
      (shader_ready_lo, "SHADER_READY_LO");
      (tiler_ready_lo, "TILER_READY_LO");
      (l2_ready_lo, "L2_READY_LO");
      (shader_pwron_lo, "SHADER_PWRON_LO");
      (tiler_pwron_lo, "TILER_PWRON_LO");
      (l2_pwron_lo, "L2_PWRON_LO");
      (shader_pwroff_lo, "SHADER_PWROFF_LO");
      (tiler_pwroff_lo, "TILER_PWROFF_LO");
      (l2_pwroff_lo, "L2_PWROFF_LO");
      (shader_config, "SHADER_CONFIG");
      (tiler_config, "TILER_CONFIG");
      (l2_mmu_config, "L2_MMU_CONFIG");
      (mmu_config, "MMU_CONFIG");
      (job_irq_rawstat, "JOB_IRQ_RAWSTAT");
      (job_irq_clear, "JOB_IRQ_CLEAR");
      (job_irq_mask, "JOB_IRQ_MASK");
      (job_irq_status, "JOB_IRQ_STATUS");
      (mmu_irq_rawstat, "MMU_IRQ_RAWSTAT");
      (mmu_irq_clear, "MMU_IRQ_CLEAR");
      (mmu_irq_mask, "MMU_IRQ_MASK");
      (mmu_irq_status, "MMU_IRQ_STATUS");
    ]
  in
  match List.assoc_opt r fixed with
  | Some n -> n
  | None -> (
    if r >= 0x00B0 && r < 0x00C0 then Printf.sprintf "TEXTURE_FEATURES_%d" ((r - 0xB0) / 4)
    else if r >= 0x00C0 && r < 0x0100 then Printf.sprintf "JS%d_FEATURES" ((r - 0xC0) / 4)
    else if r >= 0x0060 && r < 0x0080 then Printf.sprintf "PRFCNT_0x%02x" r
    else
      match in_block 0x1800 job_slot_count 0x80 0 0x7F (fun i off -> Printf.sprintf "JS%d+0x%02x" i off) with
      | Some n -> n
      | None -> (
        match in_block 0x2400 as_count 0x40 0 0x3F (fun i off -> Printf.sprintf "AS%d+0x%02x" i off) with
        | Some n -> n
        | None -> Printf.sprintf "REG_0x%04x" r))

(* [name] is asked for on every shimmed register access (symbol origins,
   trace labels); rebuilding the lookup list and formatting would dominate
   the access itself, so resolved names are cached per offset. The register
   space a driver touches is small; the cap only guards against a caller
   probing arbitrary offsets. *)
let name_cache : (int, string) Hashtbl.t = Hashtbl.create 256

let name r =
  match Hashtbl.find name_cache r with
  | s -> s
  | exception Not_found ->
    let s = name_uncached r in
    if Hashtbl.length name_cache >= 4096 then Hashtbl.reset name_cache;
    Hashtbl.add name_cache r s;
    s

let is_nondeterministic r = r = latest_flush_id
