(** The register-access backend the GPU driver is written against.

    This interface is the OCaml equivalent of the paper's driver
    instrumentation (§4.1, §6): every register accessor, polling loop, kernel
    API call and interrupt wait goes through it. Three implementations exist:

    - the native backend ([Grt.Native]) executes against a local device with
      concrete values — the GPU stack as it runs outside any TEE;
    - the forwarding backends ([Grt.Drivershim]) queue, defer, speculate and
      forward accesses to the client GPU over the network, per recording
      mode;
    - the replay-feed backend replays a validated interaction log into the
      driver during misprediction recovery (§4.2).

    Register values are symbolic expressions ({!Grt_util.Sexpr.t}); a backend
    that executes synchronously simply returns constants. [force] is the
    control-dependency point: the driver calls it when it must branch on a
    value, and a deferring backend commits there. *)

type poll_result = Poll_ok of { iters : int; value : int64 } | Poll_timeout

type t = {
  read_reg : Grt_gpu.Regs.t -> Grt_util.Sexpr.t;
  write_reg : Grt_gpu.Regs.t -> Grt_util.Sexpr.t -> unit;
  force : Grt_util.Sexpr.t -> int64;
      (** Resolve a value the driver is about to branch on. *)
  poll_reg :
    reg:Grt_gpu.Regs.t ->
    mask:int64 ->
    cond:Grt_gpu.Regs.poll_cond ->
    max_iters:int ->
    spin_ns:int64 ->
    poll_result;
      (** A simple polling loop (§4.3): idempotent reads, local iteration
          count, no external effects in the body — eligible for offload. *)
  delay_us : int -> unit;  (** kernel delay family — a commit point *)
  lock : string -> unit;
  unlock : string -> unit;  (** commits precede lock release (§4.1) *)
  externalize : string -> unit;
      (** printk-like state externalization — a speculation stall point *)
  now_us : unit -> int64;
      (** kernel time (jiffies) — drives the driver's watchdogs *)
  wait_irq : timeout_us:int -> Grt_gpu.Device.irq_line option;
  irq_scope : 'a. (unit -> 'a) -> 'a;
      (** Run an interrupt handler: accesses inside use the IRQ thread's
          deferral queue. *)
  enter_hot : string -> unit;
      (** Driver control flow enters a profiled hot function. *)
  exit_hot : string -> unit;
      (** ... and leaves it: deferred accesses are committed (§4.1). *)
}

val in_hot : t -> string -> (unit -> 'a) -> 'a
(** Bracket a hot function, exception-safely. *)
