module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem
module Regs = Grt_gpu.Regs
module Worlds = Grt_tee.Worlds
module Sexpr = Grt_util.Sexpr
module Metrics = Grt_sim.Metrics

type wire_expr =
  | Lit of int64
  | Batch of int
  | Bop of Sexpr.binop * wire_expr * wire_expr
  | Unot of wire_expr

type wire_access = W_read of int | W_write of int * wire_expr

type t = {
  clock : Grt_sim.Clock.t;
  mem : Mem.t;
  device : Device.t;
  worlds : Worlds.t;
  monitor : Grt_tee.Monitor.t;
  uplink : Memsync.t;
  metrics : Metrics.t;
  mutable isolated : bool;
  mutable polled : int64;  (** the read that met the last poll's condition *)
}

let gpu_mmio = "gpu-mmio"
let gpu_carveout = "gpu-memory"
let gpu_power_clock = "gpu-power-clock"

let gpu_resources = [ gpu_mmio; gpu_carveout; gpu_power_clock ]

(* GIC lines of the GPU block, as in the device tree (§6). *)
let irq_job = 33
let irq_gpu = 34
let irq_mmu = 35
let gpu_irqs = [ irq_job; irq_gpu; irq_mmu ]

let create ~clock ~sku ?energy ?(metrics = Metrics.create ()) ~session_salt ~cfg () =
  let mem = Mem.create () in
  let device = Device.create ?energy ~clock ~mem ~sku ~session_salt () in
  let worlds = Worlds.create () in
  List.iter (fun name -> Worlds.add_resource worlds ~name ~secure:false) gpu_resources;
  let monitor = Grt_tee.Monitor.create worlds in
  List.iter2
    (fun irq name -> Grt_tee.Monitor.register_interrupt monitor ~irq ~name)
    gpu_irqs [ "gpu-job"; "gpu-irq"; "gpu-mmu" ];
  {
    clock;
    mem;
    device;
    worlds;
    monitor;
    uplink = Memsync.create cfg;
    metrics;
    isolated = false;
    polled = 0L;
  }

let device t = t.device
let mem t = t.mem
let worlds t = t.worlds
let monitor t = t.monitor
let uplink t = t.uplink

let isolate t =
  (* SMC into the monitor: TZASC flips plus interrupt rerouting (§6). *)
  Grt_tee.Monitor.smc_claim_for_secure t.monitor ~caller:Worlds.Secure ~resources:gpu_resources
    ~irqs:gpu_irqs;
  t.isolated <- true

let release t =
  Grt_tee.Monitor.smc_release t.monitor ~caller:Worlds.Secure ~resources:gpu_resources
    ~irqs:gpu_irqs;
  t.isolated <- false

let isolated t = t.isolated

exception Not_isolated

let count t key = Metrics.incr t.metrics key

let require_isolation t = if not t.isolated then raise Not_isolated

(* [limit] is how many batch slots are filled so far: a write may only
   reference reads that precede it in the request. *)
let rec eval_expr batch limit = function
  | Lit v -> v
  | Batch i ->
    if i < 0 || i >= limit then failwith "GPUShim: batch reference out of range"
    else batch.(i)
  | Bop (op, a, b) ->
    let va = eval_expr batch limit a and vb = eval_expr batch limit b in
    (match op with
    | Sexpr.Or -> Int64.logor va vb
    | Sexpr.And -> Int64.logand va vb
    | Sexpr.Xor -> Int64.logxor va vb
    | Sexpr.Add -> Int64.add va vb
    | Sexpr.Sub -> Int64.sub va vb
    | Sexpr.Shl -> Int64.shift_left va (Int64.to_int vb land 63)
    | Sexpr.Shr -> Int64.shift_right_logical va (Int64.to_int vb land 63))
  | Unot a -> Int64.lognot (eval_expr batch limit a)

let sniff_transtab t reg value =
  (* Learn page-table roots as the driver programs them, so metastate
     classification can walk the tables. *)
  for as_idx = 0 to Regs.as_count - 1 do
    if reg = Regs.as_transtab_lo as_idx then begin
      let root = Int64.logand value (Int64.lognot 0xFFFL) in
      if not (Int64.equal root 0L) then
        Memsync.register_pt_root t.uplink ~root_pa:root
    end
  done

let apply_accesses t accesses =
  require_isolation t;
  let n_reads = ref 0 in
  Array.iter (function W_read _ -> incr n_reads | W_write _ -> ()) accesses;
  let batch = Array.make !n_reads 0L in
  let next_read = ref 0 in
  for i = 0 to Array.length accesses - 1 do
    match accesses.(i) with
    | W_read reg ->
      count t Metrics.Client_reg_reads;
      batch.(!next_read) <- Device.read_reg t.device reg;
      incr next_read
    | W_write (reg, expr) ->
      count t Metrics.Client_reg_writes;
      let v = eval_expr batch !next_read expr in
      sniff_transtab t reg v;
      Device.write_reg t.device reg v
  done;
  batch

(* How many of the next [left] loop iterations cannot see a change: the
   device changes a register only when one of its scheduled events fires,
   on the read that finds the event due. An iteration reads one MMIO access
   ([step] - [spin] ns) after it starts, so each iteration starting before
   [deadline] minus that access sees the value the last read saw. A loop
   with a deadline of its own ([until], [max_int] for none) that it checks
   after each read counts only the iterations whose read comes before it. *)
let idle_iterations t ~step ~spin ~left ~until =
  let deadline = min (Device.next_event_int t.device) until in
  if deadline = max_int then left
  else
    let room = deadline - Grt_sim.Clock.now_int t.clock - (step - spin) in
    if room <= 0 then 0 else min left ((room + step - 1) / step)

(* After a failed read, the iterations that would read the same value are
   skipped in one clock advance of their total length (a read plus a spin
   each); energy is integrated from elapsed virtual time, so virtual time
   and energy match the iteration-by-iteration loop exactly. *)
let rec spin_from t ~reg ~mask ~cond ~max_iters ~spin ~step i =
  if i >= max_iters then -1
  else begin
    let v = Device.read_reg t.device reg in
    if Regs.poll_met cond ~mask v then begin
      t.polled <- v;
      i
    end
    else begin
      Grt_sim.Clock.advance_int t.clock spin;
      let skip = idle_iterations t ~step ~spin ~left:(max_iters - i - 1) ~until:max_int in
      Grt_sim.Clock.advance_int t.clock (skip * step);
      spin_from t ~reg ~mask ~cond ~max_iters ~spin ~step (i + 1 + skip)
    end
  end

let spin_poll t ~reg ~mask ~cond ~max_iters ~spin_ns i =
  let spin = Int64.to_int spin_ns in
  spin_from t ~reg ~mask ~cond ~max_iters ~spin
    ~step:(Int64.to_int Grt_sim.Costs.mmio_access_ns + spin)
    i

let run_poll t ~reg ~mask ~cond ~max_iters ~spin_ns =
  require_isolation t;
  count t Metrics.Client_polls;
  let i = spin_poll t ~reg ~mask ~cond ~max_iters ~spin_ns 0 in
  if i < 0 then None else Some (i + 1, t.polled)

let wait_irq t ~timeout_ns =
  require_isolation t;
  count t Metrics.Client_irq_waits;
  match Device.wait_for_irq t.device ~timeout_ns with
  | None -> None
  | Some line ->
    (* The monitor must be routing this line to the secure world, or the
       normal-world OS would have consumed the interrupt. *)
    let irq =
      match line with
      | Grt_gpu.Device.Job_irq -> irq_job
      | Grt_gpu.Device.Gpu_irq -> irq_gpu
      | Grt_gpu.Device.Mmu_irq -> irq_mmu
    in
    (match Grt_tee.Monitor.deliver_irq t.monitor ~irq with
    | Worlds.Secure -> Some line
    | Worlds.Normal -> raise Not_isolated)

let upload_meta t =
  require_isolation t;
  count t Metrics.Client_uploads;
  Memsync.sync_meta t.uplink t.mem

let load_pages t payload =
  require_isolation t;
  count t Metrics.Client_downloads;
  Memsync.receive t.uplink t.mem payload

(* Cold power cycle between replay sessions that share one shim: pristine
   registers plus a clean dirty-page ledger, so the next session's cache
   flushes cost what the recording's did. Memory contents survive — every
   page the replay depends on is re-installed by the recording's own
   Mem_load entries or the fresh slot injection. *)
let power_cycle t =
  require_isolation t;
  Device.power_cycle t.device;
  Grt_gpu.Mem.clear_dirty (Device.mem t.device)

(* Soft reset, polled every microsecond for up to 10 ms. As in
   [spin_from], the reads that cannot see the reset complete are skipped
   in one clock advance; so are only those whose read would still come
   before the deadline, so a reset that never completes times out at the
   same instant. *)
let reset_gpu t =
  require_isolation t;
  Device.write_reg t.device Regs.gpu_command Regs.cmd_soft_reset;
  let deadline = Grt_sim.Clock.now_int t.clock + 10_000_000 in
  let spin = 1_000 in
  let step = Int64.to_int Grt_sim.Costs.mmio_access_ns + spin in
  let rec wait () =
    let v = Device.read_reg t.device Regs.gpu_irq_rawstat in
    if Int64.logand v Regs.irq_reset_completed <> 0L then
      Device.write_reg t.device Regs.gpu_irq_clear Regs.irq_reset_completed
    else if Grt_sim.Clock.now_int t.clock < deadline then begin
      Grt_sim.Clock.advance_int t.clock spin;
      Grt_sim.Clock.advance_int t.clock
        (step * idle_iterations t ~step ~spin ~left:max_int ~until:deadline);
      wait ()
    end
    else failwith "GPUShim: reset timeout"
  in
  wait ()
