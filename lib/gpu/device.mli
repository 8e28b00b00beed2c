(** The GPU device model.

    A passive register-programmed machine on the shared virtual clock:
    writes start work (power transitions, cache maintenance, resets, job
    chains) whose completion is scheduled as timed events; reads observe
    current state after due events are applied. Job chains are walked through
    the GPU MMU, shaders are validated against the device's SKU, and kernels
    execute with real numerics — so a replayed recording produces real
    outputs.

    Register accesses advance the clock by the MMIO cost; job execution
    charges GPU energy for its modeled duration. *)

type t

type irq_line = Job_irq | Gpu_irq | Mmu_irq

val create :
  ?energy:Grt_sim.Energy.t ->
  clock:Grt_sim.Clock.t ->
  mem:Mem.t ->
  sku:Sku.t ->
  session_salt:int64 ->
  unit ->
  t
(** [session_salt] perturbs the nondeterministic registers
    ([LATEST_FLUSH_ID]) so that distinct record runs observe different
    values, as on real hardware. *)

val sku : t -> Sku.t
val mem : t -> Mem.t
val clock : t -> Grt_sim.Clock.t

val read_reg : t -> Regs.t -> int64
val write_reg : t -> Regs.t -> int64 -> unit

val power_cycle : t -> unit
(** Restore the pristine register file, as after a cold power cycle: every
    register block back to its create-time value, pending timed events
    discarded. The clock is untouched (time does not rewind) and
    [jobs_executed] keeps counting. Lets one device host many replay
    sessions: recordings are made against a fresh device, so a reused one
    must present reset values to every register the recording reads before
    writing. *)

val irq_pending : t -> irq_line list
(** Asserted (unmasked, uncleared) interrupt lines right now. *)

val next_event_ns : t -> int64 option
(** Deadline of the earliest scheduled hardware event, if any. *)

val wait_for_irq : t -> timeout_ns:int64 -> irq_line option
(** Advance the clock until an interrupt line asserts or the timeout
    elapses. Used by the native driver loop and by GPUShim. *)

val jobs_executed : t -> int
(** Total jobs completed since creation (test/bench introspection). *)

val gpu_host_seconds : unit -> float
(** Cumulative host wall-clock seconds, on bechamel's monotonic clock,
    this process has spent doing the GPU's side of job execution
    (descriptor-chain walk, MMU translation, shader validation, kernel
    math), across all devices. That work stands in for silicon — on real hardware the GPU fetches and runs the chain
    itself and the host pays only the doorbell write — so benchmarks of
    replayer machinery subtract the delta of this counter from wall-clock
    samples taken on the same clock. *)

val last_fault : t -> string option
(** Description of the most recent job/MMU fault, for diagnostics. *)

