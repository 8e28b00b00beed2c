type poll_result = Poll_ok of { iters : int; value : int64 } | Poll_timeout

type t = {
  read_reg : Grt_gpu.Regs.t -> Grt_util.Sexpr.t;
  write_reg : Grt_gpu.Regs.t -> Grt_util.Sexpr.t -> unit;
  force : Grt_util.Sexpr.t -> int64;
  poll_reg :
    reg:Grt_gpu.Regs.t ->
    mask:int64 ->
    cond:Grt_gpu.Regs.poll_cond ->
    max_iters:int ->
    spin_ns:int64 ->
    poll_result;
  delay_us : int -> unit;
  lock : string -> unit;
  unlock : string -> unit;
  externalize : string -> unit;
  now_us : unit -> int64;
  wait_irq : timeout_us:int -> Grt_gpu.Device.irq_line option;
  irq_scope : 'a. (unit -> 'a) -> 'a;
  enter_hot : string -> unit;
  exit_hot : string -> unit;
}

let in_hot t name f =
  t.enter_hot name;
  Fun.protect ~finally:(fun () -> t.exit_hot name) f
