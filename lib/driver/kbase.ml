exception Driver_error of string

module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Mmu = Grt_gpu.Mmu
module Sexpr = Grt_util.Sexpr

let fail fmt = Printf.ksprintf (fun s -> raise (Driver_error s)) fmt

type t = {
  b : Backend.t;
  mem : Grt_gpu.Mem.t;
  coherency_ace : bool;
  mutable gpu_id : int64;
  mutable pt_format : Sku.pt_format;
  mutable shader_present : int64;
  mutable tiler_present : int64;
  mutable l2_present : int64;
  mutable as_present : int64;
  (* Quirk registers are carried symbolically: under deferral they may stay
     unresolved across the whole init sequence (Listing 1a). *)
  mutable quirk_shader : Sexpr.t;
  mutable quirk_mmu : Sexpr.t;
  mutable powered : bool;
  mutable l2_on : bool;
  mutable initialized : bool;
  mutable jobs_submitted : int;
  mutable as_roots : (int * int64) list; (* AS index -> table root, for hang recovery *)
  mutable hang_recoveries : int;
}

let create ~backend ~mem ~coherency_ace =
  {
    b = backend;
    mem;
    coherency_ace;
    gpu_id = 0L;
    pt_format = Sku.Lpae_v7;
    shader_present = 0L;
    tiler_present = 0L;
    l2_present = 0L;
    as_present = 0L;
    quirk_shader = Sexpr.const 0L;
    quirk_mmu = Sexpr.const 0L;
    powered = false;
    l2_on = false;
    initialized = false;
    jobs_submitted = 0;
    as_roots = [];
    hang_recoveries = 0;
  }

let backend t = t.b
let mem t = t.mem
let gpu_id t = t.gpu_id
let pt_format t = t.pt_format
let shader_present t = t.shader_present
let powered t = t.powered
let jobs_submitted t = t.jobs_submitted
let hang_recoveries t = t.hang_recoveries

let poll_or_fail t ~what ~reg ~mask ~cond ~max_iters ~spin_ns =
  match t.b.Backend.poll_reg ~reg ~mask ~cond ~max_iters ~spin_ns with
  | Backend.Poll_ok { iters; value } -> (iters, value)
  | Backend.Poll_timeout -> fail "timeout while polling %s (%s)" (Regs.name reg) what

(* ---- probe: hardware discovery (§4.2 "Init" category) ---- *)

let probe t =
  Backend.in_hot t.b "kbase_gpuprops_get_props" (fun () ->
      let b = t.b in
      t.gpu_id <- b.Backend.force (b.Backend.read_reg Regs.gpu_id);
      let mmu_features = b.Backend.force (b.Backend.read_reg Regs.mmu_features) in
      t.pt_format <-
        (if Int64.logand mmu_features 0x200L <> 0L then Sku.Lpae_v8 else Sku.Lpae_v7);
      (* Feature words are consumed lazily; reading them keeps them in the
         deferral queue without forcing. *)
      let feature_regs =
        [
          Regs.l2_features;
          Regs.tiler_features;
          Regs.mem_features;
          Regs.thread_max_threads;
          Regs.thread_max_workgroup_size;
          Regs.thread_features;
          Regs.texture_features 0;
          Regs.texture_features 1;
          Regs.texture_features 2;
          Regs.texture_features 3;
        ]
      in
      List.iter (fun r -> ignore (b.Backend.read_reg r)) feature_regs;
      t.as_present <- b.Backend.force (b.Backend.read_reg Regs.as_present);
      t.shader_present <- b.Backend.force (b.Backend.read_reg Regs.shader_present_lo);
      ignore (b.Backend.read_reg Regs.shader_present_hi);
      t.tiler_present <- b.Backend.force (b.Backend.read_reg Regs.tiler_present_lo);
      t.l2_present <- b.Backend.force (b.Backend.read_reg Regs.l2_present_lo);
      (* Scan the job slots and address spaces the way the real probe does:
         all 16 architectural feature words, then the implemented slots. *)
      for i = 0 to 15 do
        ignore (b.Backend.read_reg (Regs.js_features i))
      done;
      for slot = 0 to Regs.job_slot_count - 1 do
        ignore (b.Backend.read_reg (Regs.js_config slot));
        ignore (b.Backend.read_reg (Regs.js_status slot))
      done;
      for as_idx = 0 to Regs.as_count - 1 do
        ignore (b.Backend.read_reg (Regs.as_status as_idx))
      done)

(* ---- quirks: Listing 1(a) ---- *)

let mmu_allow_snoop_disparity = 0x10L

let apply_quirks t =
  Backend.in_hot t.b "kbase_pm_hw_issues_apply" (fun () ->
      let b = t.b in
      let qrk_shader = b.Backend.read_reg Regs.shader_config in
      let qrk_mmu = b.Backend.read_reg Regs.mmu_config in
      (* Data dependency: the written value encodes the (possibly still
         symbolic) read value. *)
      let qrk_mmu =
        if t.coherency_ace then Sexpr.logor qrk_mmu (Sexpr.const mmu_allow_snoop_disparity)
        else qrk_mmu
      in
      b.Backend.write_reg Regs.shader_config qrk_shader;
      b.Backend.write_reg Regs.mmu_config qrk_mmu;
      t.quirk_shader <- qrk_shader;
      t.quirk_mmu <- qrk_mmu)

(* ---- reset ---- *)

let soft_reset t =
  Backend.in_hot t.b "kbase_pm_init_hw" (fun () ->
      let b = t.b in
      b.Backend.write_reg Regs.gpu_irq_clear (Sexpr.const 0xFFFF_FFFFL);
      b.Backend.write_reg Regs.gpu_command (Sexpr.const Regs.cmd_soft_reset);
      (* The driver gives the GPU a moment before polling — an explicit
         delay, i.e. a commit barrier (§4.1). *)
      b.Backend.delay_us 1;
      let _ =
        poll_or_fail t ~what:"soft reset" ~reg:Regs.gpu_irq_rawstat
          ~mask:Regs.irq_reset_completed ~cond:Regs.Bits_set ~max_iters:3000 ~spin_ns:1_000L
      in
      b.Backend.write_reg Regs.gpu_irq_clear (Sexpr.const Regs.irq_reset_completed);
      t.powered <- false;
      t.l2_on <- false)

let setup_perf_counters t =
  Backend.in_hot t.b "kbase_instr_hwcnt_setup" (fun () ->
      let b = t.b in
      b.Backend.write_reg Regs.prfcnt_config (Sexpr.const 0L);
      b.Backend.write_reg Regs.prfcnt_base_lo (Sexpr.const 0L);
      b.Backend.write_reg Regs.prfcnt_base_hi (Sexpr.const 0L);
      b.Backend.write_reg Regs.prfcnt_jm_en (Sexpr.const 0xFFFF_FFFFL);
      b.Backend.write_reg Regs.prfcnt_shader_en (Sexpr.const 0xFFFF_FFFFL);
      b.Backend.write_reg Regs.prfcnt_tiler_en (Sexpr.const 0xFFFF_FFFFL);
      b.Backend.write_reg Regs.prfcnt_mmu_l2_en (Sexpr.const 0xFFFF_FFFFL))

let enable_interrupts t =
  let b = t.b in
  b.Backend.write_reg Regs.gpu_irq_mask
    (Sexpr.const
       (Int64.logor Regs.irq_reset_completed
          (Int64.logor Regs.irq_power_changed_all Regs.irq_clean_caches_completed)));
  b.Backend.write_reg Regs.job_irq_mask (Sexpr.const 0xFFFF_FFFFL);
  b.Backend.write_reg Regs.mmu_irq_mask (Sexpr.const 0xFFFF_FFFFL)

(* ---- power domains (§4.2 "Power state" category) ---- *)

let power_up_domain t ~what ~pwron ~ready ~mask =
  let b = t.b in
  if Int64.equal mask 0L then fail "power_up: empty %s mask" what;
  (* Read the current ready state for bookkeeping (stays in the deferral
     queue — no branch on it). *)
  ignore (b.Backend.read_reg ready);
  b.Backend.write_reg pwron (Sexpr.const mask);
  let _ =
    poll_or_fail t ~what ~reg:ready ~mask ~cond:Regs.Bits_set ~max_iters:10_000 ~spin_ns:1_000L
  in
  ()

let power_up t =
  Backend.in_hot t.b "kbase_pm_do_poweron" (fun () ->
      let b = t.b in
      b.Backend.lock "pm.lock";
      (* The L2 and tiler stay up between jobs; only power them when cold. *)
      if not t.l2_on then begin
        power_up_domain t ~what:"L2" ~pwron:Regs.l2_pwron_lo ~ready:Regs.l2_ready_lo
          ~mask:t.l2_present;
        if Int64.compare t.tiler_present 0L > 0 then
          power_up_domain t ~what:"tiler" ~pwron:Regs.tiler_pwron_lo ~ready:Regs.tiler_ready_lo
            ~mask:t.tiler_present;
        t.l2_on <- true
      end;
      power_up_domain t ~what:"shader" ~pwron:Regs.shader_pwron_lo ~ready:Regs.shader_ready_lo
        ~mask:t.shader_present;
      b.Backend.write_reg Regs.gpu_irq_clear (Sexpr.const Regs.irq_power_changed_all);
      t.powered <- true;
      b.Backend.unlock "pm.lock")

let power_down_shaders t =
  Backend.in_hot t.b "kbase_pm_do_poweroff" (fun () ->
      let b = t.b in
      b.Backend.lock "pm.lock";
      b.Backend.write_reg Regs.shader_pwroff_lo (Sexpr.const t.shader_present);
      let _ =
        poll_or_fail t ~what:"shader poweroff" ~reg:Regs.shader_ready_lo ~mask:t.shader_present
          ~cond:Regs.Bits_clear ~max_iters:10_000 ~spin_ns:1_000L
      in
      b.Backend.write_reg Regs.gpu_irq_clear (Sexpr.const Regs.irq_power_changed_all);
      t.powered <- false;
      b.Backend.unlock "pm.lock")

let wake_if_needed t = if not t.powered then power_up t

(* ---- MMU management ---- *)

let as_wait_idle t ~as_idx ~what =
  let _ =
    poll_or_fail t ~what ~reg:(Regs.as_status as_idx) ~mask:Regs.as_status_flush_active
      ~cond:Regs.Bits_clear ~max_iters:5_000 ~spin_ns:1_000L
  in
  ()

let create_address_space t ~as_idx =
  if Int64.logand t.as_present (Int64.shift_left 1L as_idx) = 0L then
    fail "address space %d not present on this GPU" as_idx;
  Backend.in_hot t.b "kbase_mmu_hw_configure" (fun () ->
      let b = t.b in
      let mmu = Mmu.create t.mem ~fmt:t.pt_format in
      b.Backend.lock "mmu_hw.lock";
      let root = Mmu.root_pa mmu in
      t.as_roots <- (as_idx, root) :: t.as_roots;
      b.Backend.write_reg (Regs.as_transtab_lo as_idx)
        (Sexpr.const (Int64.logand root 0xFFFF_FFFFL));
      b.Backend.write_reg (Regs.as_transtab_hi as_idx)
        (Sexpr.const (Int64.shift_right_logical root 32));
      b.Backend.write_reg (Regs.as_memattr_lo as_idx) (Sexpr.const 0x8888_8888L);
      b.Backend.write_reg (Regs.as_command as_idx) (Sexpr.const Regs.as_cmd_update);
      as_wait_idle t ~as_idx ~what:"AS update";
      b.Backend.unlock "mmu_hw.lock";
      mmu)

let flush_pt t ~as_idx ~va ~pages =
  Backend.in_hot t.b "kbase_mmu_hw_do_operation" (fun () ->
      let b = t.b in
      b.Backend.lock "mmu_hw.lock";
      (* lockaddr encodes region base | log2(size), as on real hardware *)
      let log2_pages = max 1 (int_of_float (ceil (log (float_of_int (max 2 pages)) /. log 2.))) in
      b.Backend.write_reg (Regs.as_lockaddr_lo as_idx)
        (Sexpr.const (Int64.logor va (Int64.of_int (log2_pages + 12))));
      b.Backend.write_reg (Regs.as_command as_idx) (Sexpr.const Regs.as_cmd_lock);
      b.Backend.write_reg (Regs.as_command as_idx) (Sexpr.const Regs.as_cmd_flush_pt);
      as_wait_idle t ~as_idx ~what:"AS flush_pt";
      b.Backend.write_reg (Regs.as_command as_idx) (Sexpr.const Regs.as_cmd_unlock);
      b.Backend.unlock "mmu_hw.lock")

let flush_mem t ~as_idx =
  Backend.in_hot t.b "kbase_mmu_hw_do_flush_mem" (fun () ->
      let b = t.b in
      b.Backend.lock "mmu_hw.lock";
      b.Backend.write_reg (Regs.as_command as_idx) (Sexpr.const Regs.as_cmd_flush_mem);
      as_wait_idle t ~as_idx ~what:"AS flush_mem";
      b.Backend.unlock "mmu_hw.lock")

let map_region t ~mmu ~as_idx ~va ~pa ~pages ~flags =
  if pages <= 0 then fail "map_region: no pages";
  for i = 0 to pages - 1 do
    let off = Int64.of_int (i * Grt_gpu.Mem.page_size) in
    Mmu.map_page mmu ~va:(Int64.add va off) ~pa:(Int64.add pa off) ~flags
  done;
  flush_pt t ~as_idx ~va ~pages

let map_block_region t ~mmu ~as_idx ~va ~pa ~blocks ~flags =
  if blocks <= 0 then fail "map_block_region: no blocks";
  for i = 0 to blocks - 1 do
    let off = Int64.of_int (i * (1 lsl 21)) in
    Mmu.map_block mmu ~va:(Int64.add va off) ~pa:(Int64.add pa off) ~flags
  done;
  flush_pt t ~as_idx ~va ~pages:(blocks * 512)

(* ---- cache maintenance ---- *)

let cache_flush t =
  Backend.in_hot t.b "kbase_gpu_cache_clean" (fun () ->
      let b = t.b in
      b.Backend.lock "hwaccess.lock";
      b.Backend.write_reg Regs.gpu_command (Sexpr.const Regs.cmd_clean_inv_caches);
      let _ =
        poll_or_fail t ~what:"cache clean" ~reg:Regs.gpu_irq_rawstat
          ~mask:Regs.irq_clean_caches_completed ~cond:Regs.Bits_set ~max_iters:20_000
          ~spin_ns:1_000L
      in
      b.Backend.write_reg Regs.gpu_irq_clear (Sexpr.const Regs.irq_clean_caches_completed);
      b.Backend.unlock "hwaccess.lock")

(* ---- job submission and completion ---- *)

let submit_job t ~as_idx ~chain_va =
  Backend.in_hot t.b "kbase_job_hw_submit" (fun () ->
      let b = t.b in
      b.Backend.lock "hwaccess.lock";
      (* The flush id is read on every submission and folded into the job
         config — a genuinely nondeterministic register (§7.3). *)
      let flush_id = b.Backend.read_reg Regs.latest_flush_id in
      (* Check the slot is idle (bookkeeping read, no branch). *)
      ignore (b.Backend.read_reg (Regs.js_status 0));
      b.Backend.write_reg (Regs.js_head_next_lo 0)
        (Sexpr.const (Int64.logand chain_va 0xFFFF_FFFFL));
      b.Backend.write_reg (Regs.js_head_next_hi 0)
        (Sexpr.const (Int64.shift_right_logical chain_va 32));
      b.Backend.write_reg (Regs.js_affinity_next_lo 0) (Sexpr.const t.shader_present);
      let config =
        Sexpr.logor (Sexpr.const (Int64.of_int as_idx)) (Sexpr.shift_left flush_id 8)
      in
      b.Backend.write_reg (Regs.js_config_next 0) config;
      b.Backend.write_reg (Regs.js_command_next 0) (Sexpr.const Regs.js_cmd_start);
      t.jobs_submitted <- t.jobs_submitted + 1;
      b.Backend.unlock "hwaccess.lock")

(* Listing 1(b): the job interrupt handler. *)
let job_irq_handler t =
  t.b.Backend.irq_scope (fun () ->
      Backend.in_hot t.b "kbase_job_irq_handler" (fun () ->
          let b = t.b in
          let done_bits = b.Backend.force (b.Backend.read_reg Regs.job_irq_status) in
          if Int64.equal done_bits 0L then `Irq_none
          else begin
            b.Backend.write_reg Regs.job_irq_clear (Sexpr.const done_bits);
            if Int64.logand done_bits 0x1_0000L <> 0L then begin
              let status = b.Backend.force (b.Backend.read_reg (Regs.js_status 0)) in
              b.Backend.externalize (Printf.sprintf "job fault, JS0_STATUS=%#Lx" status);
              `Fault status
            end
            else begin
              let status = b.Backend.force (b.Backend.read_reg (Regs.js_status 0)) in
              (* Bookkeeping reads the handler performs for the dequeued
                 atom; they ride along in the same commit. *)
              ignore (b.Backend.read_reg Regs.job_irq_rawstat);
              ignore (b.Backend.read_reg (Regs.js_head_lo 0));
              ignore (b.Backend.read_reg (Regs.js_tail_lo 0));
              if Int64.equal status Regs.js_status_done then `Done else `Fault status
            end
          end))

let mmu_irq_handler t =
  t.b.Backend.irq_scope (fun () ->
      Backend.in_hot t.b "kbase_mmu_irq_handler" (fun () ->
          let b = t.b in
          let stat = b.Backend.force (b.Backend.read_reg Regs.mmu_irq_status) in
          if Int64.equal stat 0L then `Irq_none
          else begin
            (* Find the faulting AS, fetch its fault registers, clear. *)
            let as_idx =
              let rec first_bit i =
                if i >= Regs.as_count then 0
                else if Int64.logand stat (Int64.shift_left 1L i) <> 0L then i
                else first_bit (i + 1)
              in
              first_bit 0
            in
            let fstat = b.Backend.force (b.Backend.read_reg (Regs.as_faultstatus as_idx)) in
            let faddr = b.Backend.force (b.Backend.read_reg (Regs.as_faultaddress_lo as_idx)) in
            b.Backend.write_reg Regs.mmu_irq_clear (Sexpr.const stat);
            b.Backend.externalize
              (Printf.sprintf "MMU fault: AS%d status=%#Lx addr=%#Lx" as_idx fstat faddr);
            `Fault fstat
          end))

(* The job watchdog (as in the real stack, §3.3): if a submitted job does
   not complete within the window, the driver declares a GPU hang, resets
   the hardware and resubmits. Under naive per-access forwarding on a slow
   link the submission path alone can blow the window, which is exactly
   why unoptimized remote recording "constantly throws exceptions". *)
let job_watchdog_us = 4_000_000L

exception Job_hang

let wait_job_done t ~submitted_at =
  let rec loop attempts =
    if attempts <= 0 then fail "job completion timed out";
    if Int64.compare (Int64.sub (t.b.Backend.now_us ()) submitted_at) job_watchdog_us > 0 then
      raise Job_hang;
    match t.b.Backend.wait_irq ~timeout_us:2_000_000 with
    | None -> fail "no interrupt within timeout"
    | Some Grt_gpu.Device.Job_irq -> (
      match job_irq_handler t with
      | `Done -> ()
      | `Irq_none -> loop (attempts - 1)
      | `Fault status -> fail "GPU job fault, status=%#Lx" status)
    | Some Grt_gpu.Device.Mmu_irq -> (
      match mmu_irq_handler t with
      | `Irq_none -> loop (attempts - 1)
      | `Fault status -> fail "GPU MMU fault, status=%#Lx" status)
    | Some Grt_gpu.Device.Gpu_irq ->
      (* Stale power/cache bits: acknowledge and keep waiting. *)
      t.b.Backend.write_reg Regs.gpu_irq_clear
        (Sexpr.const (Int64.logor Regs.irq_power_changed_all Regs.irq_clean_caches_completed));
      loop (attempts - 1)
  in
  loop 16

let reconfigure_as t ~as_idx =
  match List.assoc_opt as_idx t.as_roots with
  | None -> fail "hang recovery: AS %d was never configured" as_idx
  | Some root ->
    Backend.in_hot t.b "kbase_mmu_hw_configure" (fun () ->
        let b = t.b in
        b.Backend.lock "mmu_hw.lock";
        b.Backend.write_reg (Regs.as_transtab_lo as_idx)
          (Sexpr.const (Int64.logand root 0xFFFF_FFFFL));
        b.Backend.write_reg (Regs.as_transtab_hi as_idx)
          (Sexpr.const (Int64.shift_right_logical root 32));
        b.Backend.write_reg (Regs.as_memattr_lo as_idx) (Sexpr.const 0x8888_8888L);
        b.Backend.write_reg (Regs.as_command as_idx) (Sexpr.const Regs.as_cmd_update);
        as_wait_idle t ~as_idx ~what:"AS update";
        b.Backend.unlock "mmu_hw.lock")

(* GPU hang recovery, as the real driver does it: full reset, quirk and
   interrupt reprogramming, AS reconfiguration, then resubmission. *)
let recover_from_hang t ~as_idx =
  t.hang_recoveries <- t.hang_recoveries + 1;
  t.b.Backend.externalize "GPU job hang: resetting GPU";
  soft_reset t;
  apply_quirks t;
  enable_interrupts t;
  power_up t;
  reconfigure_as t ~as_idx

let run_job t ~as_idx ~chain_va =
  if not t.initialized then fail "run_job before init";
  let rec attempt tries =
    if tries > 3 then fail "GPU hang persists after %d resets (link too slow?)" (tries - 1);
    wake_if_needed t;
    flush_mem t ~as_idx;
    cache_flush t;
    let submitted_at = t.b.Backend.now_us () in
    submit_job t ~as_idx ~chain_va;
    match wait_job_done t ~submitted_at with
    | () -> ()
    | exception Job_hang ->
      recover_from_hang t ~as_idx;
      attempt (tries + 1)
  in
  attempt 1;
  cache_flush t;
  power_down_shaders t

(* ---- lifecycle ---- *)

let init t =
  if t.initialized then fail "driver already initialized";
  probe t;
  soft_reset t;
  apply_quirks t;
  setup_perf_counters t;
  enable_interrupts t;
  power_up t;
  t.initialized <- true

let shutdown t =
  if t.powered then power_down_shaders t;
  let b = t.b in
  b.Backend.write_reg Regs.gpu_irq_mask (Sexpr.const 0L);
  b.Backend.write_reg Regs.job_irq_mask (Sexpr.const 0L);
  b.Backend.write_reg Regs.mmu_irq_mask (Sexpr.const 0L);
  t.initialized <- false
