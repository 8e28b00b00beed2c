type irq_line = Job_irq | Gpu_irq | Mmu_irq

let pp_irq_line ppf l =
  Format.pp_print_string ppf
    (match l with Job_irq -> "job" | Gpu_irq -> "gpu" | Mmu_irq -> "mmu")

type domain = { mutable ready : int64; mutable pending_on : int64; mutable pending_off : int64 }

type slot = {
  mutable head : int64;
  mutable tail : int64;
  mutable affinity : int64;
  mutable config : int64;
  mutable status : int64;
  mutable head_next : int64;
  mutable affinity_next : int64;
  mutable config_next : int64;
}

type address_space = {
  mutable transtab : int64;
  mutable memattr : int64;
  mutable lockaddr : int64;
  mutable as_status : int64;
  mutable faultstatus : int64;
  mutable faultaddress : int64;
}

type event = { deadline : int; action : unit -> unit }  (* deadline: unboxed ns *)

type t = {
  sku : Sku.t;
  mem : Mem.t;
  clock : Grt_sim.Clock.t;
  energy : Grt_sim.Energy.t option;
  (* interrupt blocks: rawstat / mask per line *)
  mutable gpu_rawstat : int64;
  mutable gpu_mask : int64;
  mutable job_rawstat : int64;
  mutable job_mask : int64;
  mutable mmu_rawstat : int64;
  mutable mmu_mask : int64;
  (* config *)
  mutable shader_config : int64;
  mutable tiler_config : int64;
  mutable l2_mmu_config : int64;
  mutable mmu_config : int64;
  (* power domains *)
  shader_dom : domain;
  tiler_dom : domain;
  l2_dom : domain;
  (* job and MMU blocks *)
  slots : slot array;
  spaces : address_space array;
  (* flush id: increments per cache flush, salted per session *)
  mutable flush_count : int64;
  session_salt : int64;
  misc : (int, int64) Hashtbl.t; (* PRFCNT and similar plain storage registers *)
  mutable events : event list;
  mutable jobs_executed : int;
  mutable last_fault : string option;
  mutable resetting : bool;
}

let sku t = t.sku
let mem t = t.mem
let clock t = t.clock
let jobs_executed t = t.jobs_executed
let last_fault t = t.last_fault

let fresh_domain () = { ready = 0L; pending_on = 0L; pending_off = 0L }

let fresh_slot () =
  {
    head = 0L;
    tail = 0L;
    affinity = 0L;
    config = 0L;
    status = Regs.js_status_idle;
    head_next = 0L;
    affinity_next = 0L;
    config_next = 0L;
  }

let fresh_as () =
  { transtab = 0L; memattr = 0L; lockaddr = 0L; as_status = 0L; faultstatus = 0L; faultaddress = 0L }

let create ?energy ~clock ~mem ~sku ~session_salt () =
  {
    sku;
    mem;
    clock;
    energy;
    gpu_rawstat = 0L;
    gpu_mask = 0L;
    job_rawstat = 0L;
    job_mask = 0L;
    mmu_rawstat = 0L;
    mmu_mask = 0L;
    shader_config = sku.Sku.quirk_shader_config;
    tiler_config = 0L;
    l2_mmu_config = 0L;
    mmu_config = sku.Sku.quirk_mmu_config;
    shader_dom = fresh_domain ();
    tiler_dom = fresh_domain ();
    l2_dom = fresh_domain ();
    slots = Array.init Regs.job_slot_count (fun _ -> fresh_slot ());
    spaces = Array.init Regs.as_count (fun _ -> fresh_as ());
    flush_count = 0L;
    session_salt;
    misc = Hashtbl.create 16;
    events = [];
    jobs_executed = 0;
    last_fault = None;
    resetting = false;
  }

let schedule t ~after_ns action =
  let deadline = Grt_sim.Clock.now_int t.clock + Int64.to_int after_ns in
  t.events <- { deadline; action } :: t.events

(* Apply all events whose deadline has passed, in deadline order. Called on
   every register access, so the nothing-due case (including the common
   one-pending-job-completion case) must not allocate. *)
let rec none_due now = function
  | [] -> true
  | e :: tl -> e.deadline > now && none_due now tl

let refresh t =
  match t.events with
  | [] -> ()
  | [ e ] ->
    (* Dominant case: one pending event (a job completion, a flush). Fire
       it without the partition/sort allocation of the general path. *)
    if e.deadline <= Grt_sim.Clock.now_int t.clock then begin
      t.events <- [];
      e.action ()
    end
  | evs ->
    let now = Grt_sim.Clock.now_int t.clock in
    if none_due now evs then ()
    else begin
      let due, later = List.partition (fun e -> e.deadline <= now) evs in
      t.events <- later;
      List.iter (fun e -> e.action ()) (List.sort (fun a b -> compare a.deadline b.deadline) due)
    end

let next_event_ns t =
  match t.events with
  | [] -> None
  | es -> Some (Int64.of_int (List.fold_left (fun acc e -> min acc e.deadline) max_int es))

let raise_gpu_irq t bits = t.gpu_rawstat <- Int64.logor t.gpu_rawstat bits

(* Restore the pristine register file, as after a cold power cycle: every
   block back to its create-time value, pending timed events discarded. The
   clock is untouched (time does not rewind) and [jobs_executed] keeps
   counting across cycles. Replay sessions that reuse one device depend on
   this: recordings are made against a fresh device, so every register a
   recording reads before first writing it must hold its reset value. *)
let power_cycle t =
  t.gpu_rawstat <- 0L;
  t.gpu_mask <- 0L;
  t.job_rawstat <- 0L;
  t.job_mask <- 0L;
  t.mmu_rawstat <- 0L;
  t.mmu_mask <- 0L;
  t.shader_config <- t.sku.Sku.quirk_shader_config;
  t.tiler_config <- 0L;
  t.l2_mmu_config <- 0L;
  t.mmu_config <- t.sku.Sku.quirk_mmu_config;
  List.iter
    (fun d ->
      d.ready <- 0L;
      d.pending_on <- 0L;
      d.pending_off <- 0L)
    [ t.shader_dom; t.tiler_dom; t.l2_dom ];
  Array.iteri (fun i _ -> t.slots.(i) <- fresh_slot ()) t.slots;
  Array.iteri (fun i _ -> t.spaces.(i) <- fresh_as ()) t.spaces;
  t.flush_count <- 0L;
  Hashtbl.reset t.misc;
  t.events <- [];
  t.last_fault <- None;
  t.resetting <- false

(* ---- power domains ---- *)

let domain_power_on t dom mask =
  dom.pending_on <- Int64.logor dom.pending_on mask;
  schedule t ~after_ns:(Int64.of_int (t.sku.Sku.power_up_us * 1000)) (fun () ->
      dom.ready <- Int64.logor dom.ready dom.pending_on;
      dom.pending_on <- 0L;
      raise_gpu_irq t Regs.irq_power_changed_all)

let domain_power_off t dom mask =
  dom.pending_off <- Int64.logor dom.pending_off mask;
  schedule t ~after_ns:(Int64.of_int (t.sku.Sku.power_up_us * 500)) (fun () ->
      dom.ready <- Int64.logand dom.ready (Int64.lognot dom.pending_off);
      dom.pending_off <- 0L;
      raise_gpu_irq t Regs.irq_power_changed_all)

(* ---- resets and cache maintenance ---- *)

let do_soft_reset t =
  t.resetting <- true;
  schedule t ~after_ns:(Int64.of_int (t.sku.Sku.reset_us * 1000)) (fun () ->
      t.resetting <- false;
      t.shader_dom.ready <- 0L;
      t.tiler_dom.ready <- 0L;
      t.l2_dom.ready <- 0L;
      t.shader_config <- t.sku.Sku.quirk_shader_config;
      t.mmu_config <- t.sku.Sku.quirk_mmu_config;
      Array.iter
        (fun s ->
          s.head <- 0L;
          s.status <- Regs.js_status_idle)
        t.slots;
      Array.iter
        (fun a ->
          a.transtab <- 0L;
          a.as_status <- 0L)
        t.spaces;
      t.job_rawstat <- 0L;
      t.mmu_rawstat <- 0L;
      raise_gpu_irq t Regs.irq_reset_completed)

let do_cache_flush t =
  let dirty_kb = Mem.dirty_bytes t.mem / 1024 in
  let duration =
    Int64.add 8_000L (Int64.mul (Int64.of_int dirty_kb) Grt_sim.Costs.cache_flush_ns_per_kb)
  in
  schedule t ~after_ns:duration (fun () ->
      t.flush_count <- Int64.add t.flush_count 1L;
      Mem.clear_dirty t.mem;
      raise_gpu_irq t Regs.irq_clean_caches_completed)

(* ---- MMU ---- *)

let as_flush_duration cmd =
  if Int64.equal cmd Regs.as_cmd_flush_mem then 25_000L
  else if Int64.equal cmd Regs.as_cmd_flush_pt then 12_000L
  else 3_000L

let do_as_command t idx cmd =
  let sp = t.spaces.(idx) in
  if
    Int64.equal cmd Regs.as_cmd_update || Int64.equal cmd Regs.as_cmd_flush_pt
    || Int64.equal cmd Regs.as_cmd_flush_mem || Int64.equal cmd Regs.as_cmd_lock
    || Int64.equal cmd Regs.as_cmd_unlock
  then begin
    sp.as_status <- Regs.as_status_flush_active;
    schedule t ~after_ns:(as_flush_duration cmd) (fun () -> sp.as_status <- 0L)
  end

(* ---- job execution ---- *)

exception Gpu_fault of string

let mmu_for t ~as_idx =
  let sp = t.spaces.(as_idx) in
  if Int64.equal sp.transtab 0L then raise (Gpu_fault "AS not configured");
  Mmu.of_root t.mem ~fmt:t.sku.Sku.pt_format ~root:(Int64.logand sp.transtab (Int64.lognot 0xFFFL))

let record_mmu_fault t ~as_idx ~va reason =
  let sp = t.spaces.(as_idx) in
  sp.faultstatus <- 1L;
  sp.faultaddress <- va;
  t.mmu_rawstat <- Int64.logor t.mmu_rawstat (Int64.shift_left 1L as_idx);
  t.last_fault <- Some reason

let translate_or_fault t mmu ~as_idx ~va ~access =
  match Mmu.translate mmu ~va ~access with
  | Ok pa -> pa
  | Error f ->
    let reason = Format.asprintf "translation fault at %Lx: %a" va Mmu.pp_fault f in
    record_mmu_fault t ~as_idx ~va reason;
    raise (Gpu_fault reason)

(* Kernel streams: each operand gets a one-entry TLB over the live page
   buffers (see Kernels), backed here by a per-chain direct-mapped software
   TLB so a stream switching pages (a conv walking input channels) does not
   redo the MMU walk for a page translated moments ago. Reads of pages never
   materialized see a shared zero page without materializing them — that
   would perturb the memsync working set. A write miss that materializes a
   page displaces any read-side cache of the same VA so reads cannot keep
   serving the stale zero page. *)
let zero_page = Bytes.make Mem.page_size '\000'
let tlb_size = 256

let kernel_ctx t mmu ~as_idx =
  let rtag = Array.make tlb_size (-1)
  and rpage = Array.make tlb_size Bytes.empty
  and wtag = Array.make tlb_size (-1)
  and wpage = Array.make tlb_size Bytes.empty in
  let fill (s : Kernels.stream) va p =
    s.Kernels.sbase <- va land lnot 0xFFF;
    s.Kernels.spage <- p;
    p
  in
  let rmiss (s : Kernels.stream) va =
    let page = va land lnot 0xFFF in
    let idx = (va lsr 12) land (tlb_size - 1) in
    if Array.unsafe_get rtag idx = page then fill s va (Array.unsafe_get rpage idx)
    else begin
      let pa = translate_or_fault t mmu ~as_idx ~va:(Int64.of_int va) ~access:`Read in
      let p =
        match Mem.page_ro t.mem (Mem.page_of_addr pa) with Some p -> p | None -> zero_page
      in
      rtag.(idx) <- page;
      rpage.(idx) <- p;
      fill s va p
    end
  in
  let c_in = Kernels.new_stream rmiss
  and c_in2 = Kernels.new_stream rmiss
  and c_bias = Kernels.new_stream rmiss in
  let wmiss (s : Kernels.stream) va =
    let page = va land lnot 0xFFF in
    let idx = (va lsr 12) land (tlb_size - 1) in
    if Array.unsafe_get wtag idx = page then fill s va (Array.unsafe_get wpage idx)
    else begin
      let pa = translate_or_fault t mmu ~as_idx ~va:(Int64.of_int va) ~access:`Write in
      let p = Mem.page_rw t.mem (Mem.page_of_addr pa) in
      wtag.(idx) <- page;
      wpage.(idx) <- p;
      if rtag.(idx) = page && rpage.(idx) != p then rtag.(idx) <- -1;
      let inval (r : Kernels.stream) =
        if r.Kernels.sbase = page && r.Kernels.spage != p then r.Kernels.sbase <- -1
      in
      inval c_in;
      inval c_in2;
      inval c_bias;
      fill s va p
    end
  in
  { Kernels.c_in; c_in2; c_bias; c_out = Kernels.new_stream wmiss }

let validate_shader t mmu ~as_idx ~va ~op =
  let pa = translate_or_fault t mmu ~as_idx ~va ~access:`Exec in
  let hdr_bytes = Mem.read_bytes t.mem pa Shader.header_size in
  match Shader.parse_header hdr_bytes with
  | Error e -> raise (Gpu_fault e)
  | Ok h ->
    if not (Int64.equal h.Shader.gpu_id t.sku.Sku.gpu_id) then
      raise
        (Gpu_fault
           (Printf.sprintf "shader SKU mismatch: built for %Lx, device is %Lx" h.Shader.gpu_id
              t.sku.Sku.gpu_id));
    if h.Shader.op <> op then raise (Gpu_fault "shader/descriptor opcode mismatch")

let powered_up t =
  Int64.compare t.shader_dom.ready 0L > 0 && Int64.compare t.l2_dom.ready 0L > 0

(* Host wall-clock seconds (monotonic clock) this process has spent doing
   the GPU's side of job execution, across every device: descriptor-chain
   walk, MMU translation, shader validation and the kernel math. All of it
   stands in for silicon — on real hardware the GPU fetches and runs the
   chain itself and the host pays only the doorbell MMIO write — so
   benchmarks of the replayer subtract this from their wall-clock samples,
   which must come from the same clock. *)
let gpu_host_ns = ref 0L

let gpu_host_seconds () = Int64.to_float !gpu_host_ns *. 1e-9

let job_duration_ns t (d : Job_desc.t) =
  let f = Int64.to_float d.params.Job_desc.flops_hint in
  let compute_s = f /. Sku.flops_per_s t.sku in
  Int64.add Grt_sim.Costs.gpu_job_fixed_ns (Int64.of_float (compute_s *. 1e9))

let start_job_chain t ~slot_idx =
  let host_t0 = Monotonic_clock.now () in
  Fun.protect ~finally:(fun () ->
      gpu_host_ns := Int64.add !gpu_host_ns (Int64.sub (Monotonic_clock.now ()) host_t0))
  @@ fun () ->
  let slot = t.slots.(slot_idx) in
  let as_idx = Int64.to_int (Int64.logand slot.config 0x7L) in
  slot.status <- Regs.js_status_active;
  let finish status_bits js_status fault =
    (* Completion is scheduled after the accumulated chain duration. *)
    slot.status <- Regs.js_status_active;
    fun () ->
      slot.status <- js_status;
      slot.head <- 0L;
      t.job_rawstat <- Int64.logor t.job_rawstat status_bits;
      (match fault with Some f -> t.last_fault <- Some f | None -> ())
  in
  try
    if not (powered_up t) then raise (Gpu_fault "job started with cores powered down");
    let mmu = mmu_for t ~as_idx in
    let ctx = kernel_ctx t mmu ~as_idx in
    let total_ns = ref 0L in
    let rec run_chain va =
      if not (Int64.equal va 0L) then begin
        let pa = translate_or_fault t mmu ~as_idx ~va ~access:`Read in
        match Job_desc.read t.mem ~pa with
        | Error e ->
          Job_desc.write_status t.mem ~pa (Job_desc.Fault 1);
          raise (Gpu_fault e)
        | Ok d ->
          validate_shader t mmu ~as_idx ~va:d.Job_desc.shader_va ~op:d.Job_desc.op;
          (try Kernels.execute ctx d
           with Kernels.Kernel_fault msg ->
             Job_desc.write_status t.mem ~pa (Job_desc.Fault 2);
             raise (Gpu_fault msg));
          Job_desc.write_status t.mem ~pa Job_desc.Done;
          t.jobs_executed <- t.jobs_executed + 1;
          total_ns := Int64.add !total_ns (job_duration_ns t d);
          run_chain d.Job_desc.next_va
      end
    in
    run_chain slot.head;
    (match t.energy with
    | Some e ->
      Grt_sim.Energy.charge_j e Grt_sim.Energy.Gpu_busy
        (Int64.to_float !total_ns *. 1e-9 *. Grt_sim.Energy.rail_power_w Grt_sim.Energy.Gpu_busy)
    | None -> ());
    let done_bit = Int64.shift_left 1L slot_idx in
    schedule t ~after_ns:!total_ns (finish done_bit Regs.js_status_done None)
  with Gpu_fault msg ->
    let fail_bit = Int64.shift_left 1L (16 + slot_idx) in
    schedule t ~after_ns:20_000L
      (finish fail_bit Regs.js_status_fault_bad_descriptor (Some msg))

(* ---- register file ---- *)

let slot_reg r =
  (* Decode a job-slot register offset into (slot, offset) if applicable. *)
  if r >= 0x1800 && r < 0x1800 + (Regs.job_slot_count * 0x80) then
    Some ((r - 0x1800) / 0x80, (r - 0x1800) mod 0x80)
  else None

let as_reg r =
  if r >= 0x2400 && r < 0x2400 + (Regs.as_count * 0x40) then
    Some ((r - 0x2400) / 0x40, (r - 0x2400) mod 0x40)
  else None

let texture_features_value i = Int64.of_int (0x00FF_0000 lor i)

let read_reg t r =
  Grt_sim.Clock.advance_ns t.clock Grt_sim.Costs.mmio_access_ns;
  refresh t;
  let sku = t.sku in
  if r = Regs.gpu_id then sku.Sku.gpu_id
  else if r = Regs.l2_features then Int64.of_int (0x07 lor (sku.Sku.l2_slices lsl 8))
  else if r = Regs.tiler_features then Int64.of_int (0x809 lor (sku.Sku.tiler_units lsl 12))
  else if r = Regs.mem_features then 0x1L
  else if r = Regs.mmu_features then
    Int64.of_int (39 lor (match sku.Sku.pt_format with Sku.Lpae_v7 -> 0x100 | Sku.Lpae_v8 -> 0x200))
  else if r = Regs.as_present then Int64.sub (Int64.shift_left 1L sku.Sku.address_spaces) 1L
  else if r = Regs.gpu_irq_rawstat then t.gpu_rawstat
  else if r = Regs.gpu_irq_mask then t.gpu_mask
  else if r = Regs.gpu_irq_status then Int64.logand t.gpu_rawstat t.gpu_mask
  else if r = Regs.gpu_status then (if t.resetting then 1L else 0L)
  else if r = Regs.latest_flush_id then
    Int64.logand (Int64.add t.flush_count t.session_salt) 0xFFFF_FFFFL
  else if r = Regs.thread_max_threads then Int64.of_int (256 * sku.Sku.shader_cores)
  else if r = Regs.thread_max_workgroup_size then 384L
  else if r = Regs.thread_features then 0x0400_0400L
  else if r >= Regs.texture_features 0 && r <= Regs.texture_features 3 then
    texture_features_value ((r - Regs.texture_features 0) / 4)
  else if r >= Regs.js_features 0 && r <= Regs.js_features 15 then begin
    let i = (r - Regs.js_features 0) / 4 in
    if i < Regs.job_slot_count then 0x20EL else 0L
  end
  else if r >= Regs.prfcnt_base_lo && r <= Regs.prfcnt_mmu_l2_en then
    Option.value ~default:0L (Hashtbl.find_opt t.misc r)
  else if r = Regs.shader_present_lo then Sku.shader_present_mask sku
  else if r = Regs.shader_present_hi then 0L
  else if r = Regs.tiler_present_lo then Sku.tiler_present_mask sku
  else if r = Regs.l2_present_lo then Sku.l2_present_mask sku
  else if r = Regs.shader_ready_lo then t.shader_dom.ready
  else if r = Regs.tiler_ready_lo then t.tiler_dom.ready
  else if r = Regs.l2_ready_lo then t.l2_dom.ready
  else if r = Regs.shader_pwron_lo || r = Regs.tiler_pwron_lo || r = Regs.l2_pwron_lo then 0L
  else if r = Regs.shader_config then t.shader_config
  else if r = Regs.tiler_config then t.tiler_config
  else if r = Regs.l2_mmu_config then t.l2_mmu_config
  else if r = Regs.mmu_config then t.mmu_config
  else if r = Regs.job_irq_rawstat then t.job_rawstat
  else if r = Regs.job_irq_mask then t.job_mask
  else if r = Regs.job_irq_status then Int64.logand t.job_rawstat t.job_mask
  else if r = Regs.mmu_irq_rawstat then t.mmu_rawstat
  else if r = Regs.mmu_irq_mask then t.mmu_mask
  else if r = Regs.mmu_irq_status then Int64.logand t.mmu_rawstat t.mmu_mask
  else
    match slot_reg r with
    | Some (i, 0x00) -> t.slots.(i).head
    | Some (i, 0x08) -> t.slots.(i).tail
    | Some (i, 0x10) -> t.slots.(i).affinity
    | Some (i, 0x18) -> t.slots.(i).config
    | Some (i, 0x24) -> t.slots.(i).status
    | Some (i, 0x40) -> t.slots.(i).head_next
    | Some (i, 0x50) -> t.slots.(i).affinity_next
    | Some (i, 0x58) -> t.slots.(i).config_next
    | Some (_, _) -> 0L
    | None -> (
      match as_reg r with
      | Some (i, 0x00) -> Int64.logand t.spaces.(i).transtab 0xFFFF_FFFFL
      | Some (i, 0x04) -> Int64.shift_right_logical t.spaces.(i).transtab 32
      | Some (i, 0x08) -> t.spaces.(i).memattr
      | Some (i, 0x10) -> t.spaces.(i).lockaddr
      | Some (i, 0x1C) -> t.spaces.(i).faultstatus
      | Some (i, 0x20) -> t.spaces.(i).faultaddress
      | Some (i, 0x28) -> t.spaces.(i).as_status
      | Some (_, _) -> 0L
      | None -> 0L)

let write_reg t r v =
  Grt_sim.Clock.advance_ns t.clock Grt_sim.Costs.mmio_access_ns;
  refresh t;
  if r = Regs.gpu_irq_clear then t.gpu_rawstat <- Int64.logand t.gpu_rawstat (Int64.lognot v)
  else if r = Regs.gpu_irq_mask then t.gpu_mask <- v
  else if r = Regs.gpu_command then begin
    if Int64.equal v Regs.cmd_soft_reset || Int64.equal v Regs.cmd_hard_reset then do_soft_reset t
    else if Int64.equal v Regs.cmd_clean_caches || Int64.equal v Regs.cmd_clean_inv_caches then
      do_cache_flush t
  end
  else if r = Regs.shader_config then t.shader_config <- v
  else if r = Regs.tiler_config then t.tiler_config <- v
  else if r = Regs.l2_mmu_config then t.l2_mmu_config <- v
  else if r = Regs.mmu_config then t.mmu_config <- v
  else if r >= Regs.prfcnt_base_lo && r <= Regs.prfcnt_mmu_l2_en then Hashtbl.replace t.misc r v
  else if r = Regs.shader_pwron_lo then domain_power_on t t.shader_dom v
  else if r = Regs.tiler_pwron_lo then domain_power_on t t.tiler_dom v
  else if r = Regs.l2_pwron_lo then domain_power_on t t.l2_dom v
  else if r = Regs.shader_pwroff_lo then domain_power_off t t.shader_dom v
  else if r = Regs.tiler_pwroff_lo then domain_power_off t t.tiler_dom v
  else if r = Regs.l2_pwroff_lo then domain_power_off t t.l2_dom v
  else if r = Regs.job_irq_clear then t.job_rawstat <- Int64.logand t.job_rawstat (Int64.lognot v)
  else if r = Regs.job_irq_mask then t.job_mask <- v
  else if r = Regs.mmu_irq_clear then t.mmu_rawstat <- Int64.logand t.mmu_rawstat (Int64.lognot v)
  else if r = Regs.mmu_irq_mask then t.mmu_mask <- v
  else
    match slot_reg r with
    | Some (i, 0x00) -> t.slots.(i).head <- Int64.logor (Int64.logand t.slots.(i).head 0xFFFF_FFFF_0000_0000L) v
    | Some (i, 0x04) ->
      t.slots.(i).head <-
        Int64.logor (Int64.logand t.slots.(i).head 0xFFFF_FFFFL) (Int64.shift_left v 32)
    | Some (i, 0x08) -> t.slots.(i).tail <- v
    | Some (i, 0x10) -> t.slots.(i).affinity <- v
    | Some (i, 0x18) -> t.slots.(i).config <- v
    | Some (i, 0x20) -> if Int64.equal v Regs.js_cmd_start then start_job_chain t ~slot_idx:i
    | Some (i, 0x40) ->
      t.slots.(i).head_next <-
        Int64.logor (Int64.logand t.slots.(i).head_next 0xFFFF_FFFF_0000_0000L) v
    | Some (i, 0x44) ->
      t.slots.(i).head_next <-
        Int64.logor (Int64.logand t.slots.(i).head_next 0xFFFF_FFFFL) (Int64.shift_left v 32)
    | Some (i, 0x50) -> t.slots.(i).affinity_next <- v
    | Some (i, 0x58) -> t.slots.(i).config_next <- v
    | Some (i, 0x60) ->
      (* The _NEXT interface: START latches the staged registers into the
         active set and kicks the chain, as on real job managers. *)
      if Int64.equal v Regs.js_cmd_start then begin
        let slot = t.slots.(i) in
        slot.head <- slot.head_next;
        slot.affinity <- slot.affinity_next;
        slot.config <- slot.config_next;
        start_job_chain t ~slot_idx:i
      end
    | Some (_, _) -> ()
    | None -> (
      match as_reg r with
      | Some (i, 0x00) ->
        t.spaces.(i).transtab <- Int64.logor (Int64.logand t.spaces.(i).transtab 0xFFFF_FFFF_0000_0000L) v
      | Some (i, 0x04) ->
        t.spaces.(i).transtab <-
          Int64.logor (Int64.logand t.spaces.(i).transtab 0xFFFF_FFFFL) (Int64.shift_left v 32)
      | Some (i, 0x08) -> t.spaces.(i).memattr <- v
      | Some (i, 0x10) -> t.spaces.(i).lockaddr <- v
      | Some (i, 0x18) -> do_as_command t i v
      | Some (_, _) -> ()
      | None -> ())

let irq_pending t =
  refresh t;
  let lines = ref [] in
  if Int64.compare (Int64.logand t.mmu_rawstat t.mmu_mask) 0L <> 0 then lines := Mmu_irq :: !lines;
  if Int64.compare (Int64.logand t.gpu_rawstat t.gpu_mask) 0L <> 0 then lines := Gpu_irq :: !lines;
  if Int64.compare (Int64.logand t.job_rawstat t.job_mask) 0L <> 0 then lines := Job_irq :: !lines;
  !lines

let wait_for_irq t ~timeout_ns =
  let deadline = Grt_sim.Clock.now_int t.clock + Int64.to_int timeout_ns in
  let rec loop () =
    match irq_pending t with
    | line :: _ -> Some line
    | [] -> (
      match next_event_ns t with
      | Some ev when Int64.to_int ev <= deadline ->
        Grt_sim.Clock.advance_to t.clock ev;
        loop ()
      | _ ->
        if Grt_sim.Clock.now_int t.clock < deadline then begin
          Grt_sim.Clock.advance_to_int t.clock deadline;
          loop ()
        end
        else None)
  in
  loop ()
