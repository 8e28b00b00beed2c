(** GPUShim — the client-TEE half of the recorder (§3.2, §6).

    Instantiated as a TEE module on the client: it locks the GPU into the
    secure world for the duration of a record (or replay) session, applies
    the cloud's committed register accesses to the physical GPU in exact
    program order, runs offloaded polling loops, forwards interrupts, and
    ships the client-side memory deltas (GPU-written job status) back up.

    Committed writes may carry symbolic expressions referencing reads from
    the same batch; the shim resolves them incrementally as it applies the
    batch — the client never sees an unresolvable (i.e. speculative) value. *)

type wire_expr =
  | Lit of int64
  | Batch of int  (** value of the [n]-th read in this batch *)
  | Bop of Grt_util.Sexpr.binop * wire_expr * wire_expr
  | Unot of wire_expr

type wire_access = W_read of int | W_write of int * wire_expr

type t

val create :
  clock:Grt_sim.Clock.t ->
  sku:Grt_gpu.Sku.t ->
  ?energy:Grt_sim.Energy.t ->
  ?metrics:Grt_sim.Metrics.t ->
  session_salt:int64 ->
  cfg:Mode.config ->
  unit ->
  t
(** Builds the client's memory, device and TZASC state. The shim counts
    its traffic ([client.*]) in [metrics], a fresh store by default. *)

val device : t -> Grt_gpu.Device.t
val mem : t -> Grt_gpu.Mem.t
val worlds : t -> Worlds.t
val monitor : t -> Monitor.t
val uplink : t -> Memsync.t
(** The client→cloud sync state; the orchestrator registers regions here. *)

val isolate : t -> unit
(** SMC to the secure monitor: lock GPU MMIO, the GPU memory carveout and
    the GPU's power/clock controls to the secure world, and reroute the
    GPU's interrupt lines to the TEE (§6). *)

val release : t -> unit
val isolated : t -> bool

exception Not_isolated

val apply_accesses : t -> wire_access array -> int64 array
(** Apply a committed batch in order; returns the concrete value of every
    read, in batch order (a fresh array, never mutated afterwards). Raises
    {!Not_isolated} if the GPU is not locked to the TEE, and [Failure] on
    unresolvable write expressions. *)

val run_poll :
  t ->
  reg:int ->
  mask:int64 ->
  cond:Grt_gpu.Regs.poll_cond ->
  max_iters:int ->
  spin_ns:int64 ->
  (int * int64) option
(** Execute an offloaded polling loop against the device: the number of
    iterations run and the value that met the condition, or [None] on
    timeout. *)

val spin_poll :
  t ->
  reg:int ->
  mask:int64 ->
  cond:Grt_gpu.Regs.poll_cond ->
  max_iters:int ->
  spin_ns:int64 ->
  int ->
  int
(** [spin_poll t ... i] runs a polling loop from iteration [i] (each
    iteration a register read, then [spin_ns] if the condition fails) and
    returns the first iteration whose read meets the condition, or [-1]
    when none does before [max_iters].
    Iterations that cannot observe a device event are skipped in one clock
    advance, so the virtual time, energy and result are those of the
    iteration-by-iteration loop. It neither checks isolation nor counts. *)

val wait_irq : t -> timeout_ns:int64 -> Grt_gpu.Device.irq_line option

val upload_meta : t -> Memsync.sync_payload
(** Client→cloud dump: metastate pages changed since the last exchange
    (e.g. job statuses the GPU wrote). *)

val load_pages : t -> Memsync.logged -> (int64 * bytes) list
(** Install a cloud→client dump in its logged form — a logged entry
    replayed during recovery — into client memory through the uplink's
    receiver side ({!Memsync.receive}); returns the installed pages. *)

val load_payload : t -> Memsync.sync_payload -> unit
(** {!load_pages} of a live cloud→client dump, straight from the sender's
    records ({!Memsync.receive_payload}). *)

val power_cycle : t -> unit
(** Cold power cycle (pristine register file, clean dirty ledger), for
    batch replay sessions that reuse one shim. Raises {!Not_isolated} when
    the GPU is not locked to the TEE. Costs no virtual time — a no-op on a
    fresh shim, so single replays are unaffected. *)

val reset_gpu : t -> unit
(** Soft-reset and quiesce the GPU (used before replay-based recovery and
    around replay sessions). *)
