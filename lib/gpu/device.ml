type irq_line = Job_irq | Gpu_irq | Mmu_irq

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

(* What a timed event does when it fires: finish a power transition of a
   domain (0 shader, 1 tiler, 2 L2), a reset, a cache flush, an AS
   command, or a job chain on a slot. *)
type event_kind =
  | Power_on
  | Power_off
  | Reset_done
  | Flush_done
  | As_idle
  | Chain_done
  | Chain_failed

(* Pending events in parallel arrays, in reverse firing order: the entry
   at [n - 1] fires first. Firing order is by deadline, and among equal
   deadlines the latest scheduled first. [arg] is the domain, AS or slot
   index; [fault] the message of a failed chain. Scheduling and firing
   allocate nothing once the arrays have grown. *)
type events = {
  mutable n : int;
  mutable deadline : int array;  (** unboxed ns *)
  mutable kind : event_kind array;
  mutable arg : int array;
  mutable fault : string array;
}

(* Direct-mapped read and write TLBs for kernel streams. [used] lists the
   slots filled since the chain started, so the chain-end reset touches
   only those. A slot is listed when it is filled while both its tags are
   invalid, and a listed slot keeps a valid tag until the chain ends, so no
   slot is listed twice. *)
type tlb = {
  rtag : int array;
  rpage : bytes array;
  wtag : int array;
  wpage : bytes array;
  used : int array;
  mutable n_used : int;
}

(* The address space of the running chain, which the kernel streams' miss
   handlers translate in. *)
type space_of_chain = { mutable mmu : Mmu.t; mutable as_idx : int }

(* The kernel streams and the TLB behind them, made on the device's first
   chain and reused by every later one. *)
type kernel = { tlb : tlb; ctx : Kernels.ctx; chain : space_of_chain }

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
  events : events;
  mutable jobs_executed : int;
  mutable last_fault : string option;
  mutable resetting : bool;
  mutable kernel : kernel option; (* see [kernel_ctx] *)
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
    events = { n = 0; deadline = [||]; kind = [||]; arg = [||]; fault = [||] };
    jobs_executed = 0;
    last_fault = None;
    resetting = false;
    kernel = None;
  }

let schedule t ~after_ns kind arg fault =
  let deadline = Grt_sim.Clock.now_int t.clock + after_ns in
  let q = t.events in
  if q.n = Array.length q.deadline then begin
    let cap = max 8 (2 * q.n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 q.n;
      b
    in
    q.deadline <- grow q.deadline 0;
    q.kind <- grow q.kind Power_on;
    q.arg <- grow q.arg 0;
    q.fault <- grow q.fault ""
  end;
  (* The entries with earlier deadlines fire before this one: they move up
     one, and it goes below them. A loop, not [Array.blit]: the queue is a
     few entries long, and four blits cost more than the moves. *)
  let i = ref q.n in
  while !i > 0 && q.deadline.(!i - 1) < deadline do
    let j = !i in
    q.deadline.(j) <- q.deadline.(j - 1);
    q.kind.(j) <- q.kind.(j - 1);
    q.arg.(j) <- q.arg.(j - 1);
    q.fault.(j) <- q.fault.(j - 1);
    i := j - 1
  done;
  let i = !i in
  q.deadline.(i) <- deadline;
  q.kind.(i) <- kind;
  q.arg.(i) <- arg;
  q.fault.(i) <- fault;
  q.n <- q.n + 1

let clear_events t =
  let q = t.events in
  Array.fill q.fault 0 q.n "";
  q.n <- 0

(* Deadline of the next event to fire; [max_int] when none is pending. *)
let next_event_int t =
  let q = t.events in
  if q.n = 0 then max_int else q.deadline.(q.n - 1)

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
  clear_events t;
  t.last_fault <- None;
  t.resetting <- false

(* ---- power domains ---- *)

let domain t i = match i with 0 -> t.shader_dom | 1 -> t.tiler_dom | _ -> t.l2_dom

let domain_power_on t i mask =
  let dom = domain t i in
  dom.pending_on <- Int64.logor dom.pending_on mask;
  schedule t ~after_ns:(t.sku.Sku.power_up_us * 1000) Power_on i ""

let domain_power_off t i mask =
  let dom = domain t i in
  dom.pending_off <- Int64.logor dom.pending_off mask;
  schedule t ~after_ns:(t.sku.Sku.power_up_us * 500) Power_off i ""

(* ---- resets and cache maintenance ---- *)

let do_soft_reset t =
  t.resetting <- true;
  schedule t ~after_ns:(t.sku.Sku.reset_us * 1000) Reset_done 0 ""

let finish_reset t =
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
  raise_gpu_irq t Regs.irq_reset_completed

let do_cache_flush t =
  let dirty_kb = Mem.dirty_bytes t.mem / 1024 in
  let duration =
    Int64.add 8_000L (Int64.mul (Int64.of_int dirty_kb) Grt_sim.Costs.cache_flush_ns_per_kb)
  in
  schedule t ~after_ns:(Int64.to_int duration) Flush_done 0 ""

(* ---- MMU ---- *)

let as_flush_duration cmd =
  if Int64.equal cmd Regs.as_cmd_flush_mem then 25_000
  else if Int64.equal cmd Regs.as_cmd_flush_pt then 12_000
  else 3_000

let do_as_command t idx cmd =
  let sp = t.spaces.(idx) in
  if
    Int64.equal cmd Regs.as_cmd_update || Int64.equal cmd Regs.as_cmd_flush_pt
    || Int64.equal cmd Regs.as_cmd_flush_mem || Int64.equal cmd Regs.as_cmd_lock
    || Int64.equal cmd Regs.as_cmd_unlock
  then begin
    sp.as_status <- Regs.as_status_flush_active;
    schedule t ~after_ns:(as_flush_duration cmd) As_idle idx ""
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

(* Kernel streams: each operand gets a one-entry TLB over the live page
   buffers (see Kernels), backed here by a direct-mapped software TLB so a
   stream switching pages (a conv walking input channels) does not redo the
   MMU walk for a page translated moments ago. The streams and the TLB
   belong to the device and are made on its first chain; every chain
   starts with all tags invalid, so no chain sees another's translations,
   and ends with the page references dropped, so the device keeps no page
   alive between chains. Reads of pages never materialized see a shared
   zero page without materializing them — that would perturb the memsync
   working set. A write miss that materializes a page displaces any
   read-side cache of the same VA so reads cannot keep serving the stale
   zero page. *)
let zero_page = Bytes.make Mem.page_size '\000'
let tlb_size = 256

let release_kernel t =
  match t.kernel with
  | None -> ()
  | Some { tlb = k; ctx; _ } ->
    for u = 0 to k.n_used - 1 do
      let i = k.used.(u) in
      k.rtag.(i) <- -1;
      k.rpage.(i) <- Bytes.empty;
      k.wtag.(i) <- -1;
      k.wpage.(i) <- Bytes.empty
    done;
    k.n_used <- 0;
    let drop (s : Kernels.stream) =
      s.Kernels.sbase <- -1;
      s.Kernels.spage <- Bytes.empty
    in
    drop ctx.Kernels.c_in;
    drop ctx.Kernels.c_in2;
    drop ctx.Kernels.c_bias;
    drop ctx.Kernels.c_out

let claim k idx =
  if Array.unsafe_get k.rtag idx = -1 && Array.unsafe_get k.wtag idx = -1 then begin
    k.used.(k.n_used) <- idx;
    k.n_used <- k.n_used + 1
  end

(* The MMU fault at [va], recorded and raised. *)
let fault_at t mmu ~as_idx ~va ~access =
  match Mmu.translate mmu ~va ~access with
  | Ok pa -> Int64.to_int pa
  | Error f ->
    let reason = Format.asprintf "translation fault at %Lx: %a" va Mmu.pp_fault f in
    record_mmu_fault t ~as_idx ~va reason;
    raise (Gpu_fault reason)

(* The PA of [va] (as an int) in the address space, or the MMU fault
   recorded and raised. *)
let translate_or_fault t mmu ~as_idx ~va ~access =
  let pa = Mmu.translate_int mmu ~va ~access in
  if pa >= 0 then pa else fault_at t mmu ~as_idx ~va:(Int64.of_int va) ~access

(* The same for a VA a descriptor or job slot holds: the walk reads only
   its low bits, but a fault reports all 64. *)
let translate_va_or_fault t mmu ~as_idx ~va ~access =
  let pa = Mmu.translate_int mmu ~va:(Int64.to_int va) ~access in
  if pa >= 0 then pa else fault_at t mmu ~as_idx ~va ~access

let make_kernel t mmu =
  let k =
    {
      rtag = Array.make tlb_size (-1);
      rpage = Array.make tlb_size Bytes.empty;
      wtag = Array.make tlb_size (-1);
      wpage = Array.make tlb_size Bytes.empty;
      used = Array.make tlb_size 0;
      n_used = 0;
    }
  in
  let rtag = k.rtag and rpage = k.rpage and wtag = k.wtag and wpage = k.wpage in
  let chain = { mmu; as_idx = 0 } in
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
      let pa = translate_or_fault t chain.mmu ~as_idx:chain.as_idx ~va ~access:`Read in
      let p =
        let p = Mem.borrow_ro t.mem (pa lsr Mem.page_shift) in
        if p == Bytes.empty then zero_page else p
      in
      claim k idx;
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
      let pa = translate_or_fault t chain.mmu ~as_idx:chain.as_idx ~va ~access:`Write in
      let p = Mem.page_rw t.mem (Int64.of_int (pa lsr Mem.page_shift)) in
      claim k idx;
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
  { tlb = k; ctx = { Kernels.c_in; c_in2; c_bias; c_out = Kernels.new_stream wmiss }; chain }

let kernel_ctx t mmu ~as_idx =
  let kn =
    match t.kernel with
    | Some kn -> kn
    | None ->
      let kn = make_kernel t mmu in
      t.kernel <- Some kn;
      kn
  in
  kn.chain.mmu <- mmu;
  kn.chain.as_idx <- as_idx;
  kn.ctx

(* The header check reads the page in place; only a header that fails it
   is parsed, for the fault's message. *)
let validate_shader t mmu ~as_idx ~va ~op =
  let pa = translate_va_or_fault t mmu ~as_idx ~va ~access:`Exec in
  let page = Mem.borrow_ro t.mem (pa lsr Mem.page_shift) in
  if not (Shader.header_matches page (pa land 0xFFF) ~gpu_id:t.sku.Sku.gpu_id ~op) then
    match Shader.parse_header (Mem.read_bytes t.mem (Int64.of_int pa) Shader.header_size) with
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

(* Host wall-clock nanoseconds (monotonic clock) this process has spent
   doing the GPU's side of job execution, across every device:
   descriptor-chain walk, MMU translation, shader validation and the
   kernel math. All of it stands in for silicon — on real hardware the GPU
   fetches and runs the chain itself and the host pays only the doorbell
   MMIO write — so benchmarks of the replayer subtract this from their
   wall-clock samples, which must come from the same clock. *)
let gpu_host_ns = ref 0

let gpu_host_seconds () = float_of_int !gpu_host_ns *. 1e-9

let job_duration_ns t (d : Job_desc.t) =
  let f = Int64.to_float d.params.Job_desc.flops_hint in
  let compute_s = f /. Sku.flops_per_s t.sku in
  Int64.to_int (Int64.add Grt_sim.Costs.gpu_job_fixed_ns (Int64.of_float (compute_s *. 1e9)))

(* Walk the chain from [va], running each job; [total_ns] plus the jobs'
   modeled durations. *)
let rec run_chain t mmu ~as_idx ctx va total_ns =
  if Int64.equal va 0L then total_ns
  else begin
    let pa = Int64.of_int (translate_va_or_fault t mmu ~as_idx ~va ~access:`Read) in
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
      run_chain t mmu ~as_idx ctx d.Job_desc.next_va (total_ns + job_duration_ns t d)
  end

(* Run the slot's chain now and schedule its completion, or its fault, as
   an event after the chain's modeled duration. *)
let run_slot t ~slot_idx =
  let slot = t.slots.(slot_idx) in
  let as_idx = Int64.to_int (Int64.logand slot.config 0x7L) in
  slot.status <- Regs.js_status_active;
  match
    if not (powered_up t) then raise (Gpu_fault "job started with cores powered down");
    let mmu = mmu_for t ~as_idx in
    run_chain t mmu ~as_idx (kernel_ctx t mmu ~as_idx) slot.head 0
  with
  | total_ns ->
    (match t.energy with
    | Some e ->
      Grt_sim.Energy.charge_j e Grt_sim.Energy.Gpu_busy
        (float_of_int total_ns *. 1e-9 *. Grt_sim.Energy.rail_power_w Grt_sim.Energy.Gpu_busy)
    | None -> ());
    schedule t ~after_ns:total_ns Chain_done slot_idx ""
  | exception Gpu_fault msg -> schedule t ~after_ns:20_000 Chain_failed slot_idx msg

let start_job_chain t ~slot_idx =
  let host_t0 = Int64.to_int (Monotonic_clock.now ()) in
  let finish () =
    release_kernel t;
    gpu_host_ns := !gpu_host_ns + (Int64.to_int (Monotonic_clock.now ()) - host_t0)
  in
  match run_slot t ~slot_idx with
  | () -> finish ()
  | exception e ->
    finish ();
    raise e

(* ---- timed events ---- *)

let fire t kind arg fault =
  match kind with
  | Power_on ->
    let dom = domain t arg in
    dom.ready <- Int64.logor dom.ready dom.pending_on;
    dom.pending_on <- 0L;
    raise_gpu_irq t Regs.irq_power_changed_all
  | Power_off ->
    let dom = domain t arg in
    dom.ready <- Int64.logand dom.ready (Int64.lognot dom.pending_off);
    dom.pending_off <- 0L;
    raise_gpu_irq t Regs.irq_power_changed_all
  | Reset_done -> finish_reset t
  | Flush_done ->
    t.flush_count <- Int64.add t.flush_count 1L;
    Mem.clear_dirty t.mem;
    raise_gpu_irq t Regs.irq_clean_caches_completed
  | As_idle -> t.spaces.(arg).as_status <- 0L
  | Chain_done ->
    let slot = t.slots.(arg) in
    slot.status <- Regs.js_status_done;
    slot.head <- 0L;
    t.job_rawstat <- Int64.logor t.job_rawstat (Int64.shift_left 1L arg)
  | Chain_failed ->
    let slot = t.slots.(arg) in
    slot.status <- Regs.js_status_fault_bad_descriptor;
    slot.head <- 0L;
    t.job_rawstat <- Int64.logor t.job_rawstat (Int64.shift_left 1L (16 + arg));
    t.last_fault <- Some fault

(* Fire every event whose deadline has passed, in firing order. Called on
   every register access; allocates nothing. *)
let refresh t =
  let q = t.events in
  let now = Grt_sim.Clock.now_int t.clock in
  while q.n > 0 && q.deadline.(q.n - 1) <= now do
    let i = q.n - 1 in
    let fault = q.fault.(i) in
    q.fault.(i) <- "";
    q.n <- i;
    fire t q.kind.(i) q.arg.(i) fault
  done

(* ---- register file ---- *)

(* Job-slot registers sit in [js_lo, js_hi), 0x80 bytes per slot, and
   address-space registers in [as_lo, as_hi), 0x40 bytes per space; the
   decode is plain int arithmetic so an access allocates nothing. No named
   register lies in either window, so [read_reg] and [write_reg] test the
   windows first: most accesses of a replay land there. *)
let js_lo = 0x1800
let js_hi = js_lo + (Regs.job_slot_count * 0x80)
let as_lo = 0x2400
let as_hi = as_lo + (Regs.as_count * 0x40)
let texture_features_first = Regs.texture_features 0
let texture_features_last = Regs.texture_features 3
let js_features_first = Regs.js_features 0
let js_features_last = Regs.js_features 15

let texture_features_value i = Int64.of_int (0x00FF_0000 lor i)

let read_slot_reg t r =
  let s = t.slots.((r - js_lo) lsr 7) in
  match (r - js_lo) land 0x7F with
  | 0x00 -> s.head
  | 0x08 -> s.tail
  | 0x10 -> s.affinity
  | 0x18 -> s.config
  | 0x24 -> s.status
  | 0x40 -> s.head_next
  | 0x50 -> s.affinity_next
  | 0x58 -> s.config_next
  | _ -> 0L

let read_as_reg t r =
  let a = t.spaces.((r - as_lo) lsr 6) in
  match (r - as_lo) land 0x3F with
  | 0x00 -> Int64.logand a.transtab 0xFFFF_FFFFL
  | 0x04 -> Int64.shift_right_logical a.transtab 32
  | 0x08 -> a.memattr
  | 0x10 -> a.lockaddr
  | 0x1C -> a.faultstatus
  | 0x20 -> a.faultaddress
  | 0x28 -> a.as_status
  | _ -> 0L

let read_reg t r =
  Grt_sim.Clock.advance_ns t.clock Grt_sim.Costs.mmio_access_ns;
  refresh t;
  let sku = t.sku in
  if r >= js_lo && r < js_hi then read_slot_reg t r
  else if r >= as_lo && r < as_hi then read_as_reg t r
  else if r = Regs.gpu_id then sku.Sku.gpu_id
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
  else if r >= texture_features_first && r <= texture_features_last then
    texture_features_value ((r - texture_features_first) / 4)
  else if r >= js_features_first && r <= js_features_last then begin
    let i = (r - js_features_first) / 4 in
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
  else 0L

let lo32 old v = Int64.logor (Int64.logand old 0xFFFF_FFFF_0000_0000L) v
let hi32 old v = Int64.logor (Int64.logand old 0xFFFF_FFFFL) (Int64.shift_left v 32)

let write_slot_reg t r v =
  let i = (r - js_lo) lsr 7 in
  let s = t.slots.(i) in
  match (r - js_lo) land 0x7F with
  | 0x00 -> s.head <- lo32 s.head v
  | 0x04 -> s.head <- hi32 s.head v
  | 0x08 -> s.tail <- v
  | 0x10 -> s.affinity <- v
  | 0x18 -> s.config <- v
  | 0x20 -> if Int64.equal v Regs.js_cmd_start then start_job_chain t ~slot_idx:i
  | 0x40 -> s.head_next <- lo32 s.head_next v
  | 0x44 -> s.head_next <- hi32 s.head_next v
  | 0x50 -> s.affinity_next <- v
  | 0x58 -> s.config_next <- v
  | 0x60 ->
    (* The _NEXT interface: START latches the staged registers into the
       active set and kicks the chain, as on real job managers. *)
    if Int64.equal v Regs.js_cmd_start then begin
      s.head <- s.head_next;
      s.affinity <- s.affinity_next;
      s.config <- s.config_next;
      start_job_chain t ~slot_idx:i
    end
  | _ -> ()

let write_as_reg t r v =
  let i = (r - as_lo) lsr 6 in
  let a = t.spaces.(i) in
  match (r - as_lo) land 0x3F with
  | 0x00 -> a.transtab <- lo32 a.transtab v
  | 0x04 -> a.transtab <- hi32 a.transtab v
  | 0x08 -> a.memattr <- v
  | 0x10 -> a.lockaddr <- v
  | 0x18 -> do_as_command t i v
  | _ -> ()

let write_reg t r v =
  Grt_sim.Clock.advance_ns t.clock Grt_sim.Costs.mmio_access_ns;
  refresh t;
  if r >= js_lo && r < js_hi then write_slot_reg t r v
  else if r >= as_lo && r < as_hi then write_as_reg t r v
  else if r = Regs.gpu_irq_clear then t.gpu_rawstat <- Int64.logand t.gpu_rawstat (Int64.lognot v)
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
  else if r = Regs.shader_pwron_lo then domain_power_on t 0 v
  else if r = Regs.tiler_pwron_lo then domain_power_on t 1 v
  else if r = Regs.l2_pwron_lo then domain_power_on t 2 v
  else if r = Regs.shader_pwroff_lo then domain_power_off t 0 v
  else if r = Regs.tiler_pwroff_lo then domain_power_off t 1 v
  else if r = Regs.l2_pwroff_lo then domain_power_off t 2 v
  else if r = Regs.job_irq_clear then t.job_rawstat <- Int64.logand t.job_rawstat (Int64.lognot v)
  else if r = Regs.job_irq_mask then t.job_mask <- v
  else if r = Regs.mmu_irq_clear then t.mmu_rawstat <- Int64.logand t.mmu_rawstat (Int64.lognot v)
  else if r = Regs.mmu_irq_mask then t.mmu_mask <- v

(* The asserted lines, highest priority first: job, GPU, MMU. *)
let job_asserted t = Int64.compare (Int64.logand t.job_rawstat t.job_mask) 0L <> 0
let gpu_asserted t = Int64.compare (Int64.logand t.gpu_rawstat t.gpu_mask) 0L <> 0
let mmu_asserted t = Int64.compare (Int64.logand t.mmu_rawstat t.mmu_mask) 0L <> 0

let irq_pending t =
  refresh t;
  let lines = ref [] in
  if mmu_asserted t then lines := Mmu_irq :: !lines;
  if gpu_asserted t then lines := Gpu_irq :: !lines;
  if job_asserted t then lines := Job_irq :: !lines;
  !lines

(* The head of [irq_pending], without building the list. *)
let first_irq t =
  refresh t;
  if job_asserted t then Some Job_irq
  else if gpu_asserted t then Some Gpu_irq
  else if mmu_asserted t then Some Mmu_irq
  else None

let wait_for_irq t ~timeout_ns =
  let deadline = Grt_sim.Clock.now_int t.clock + Int64.to_int timeout_ns in
  let rec loop () =
    match first_irq t with
    | Some _ as line -> line
    | None ->
      let ev = next_event_int t in
      if ev <= deadline then begin
        Grt_sim.Clock.advance_to_int t.clock ev;
        loop ()
      end
      else if Grt_sim.Clock.now_int t.clock < deadline then begin
        Grt_sim.Clock.advance_to_int t.clock deadline;
        loop ()
      end
      else None
  in
  loop ()
