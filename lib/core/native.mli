(** Native execution: the full GPU stack running against a local GPU in the
    normal world — the insecure baseline of Table 2 and the machinery the
    cloud VM uses when its "device" is the forwarding shim instead.

    The backend executes every access synchronously against a
    {!Grt_gpu.Device.t} and returns concrete values. *)

val backend :
  ?metrics:Grt_sim.Metrics.t ->
  Grt_gpu.Device.t ->
  Grt_driver.Backend.t
(** Counters recorded in [metrics] (a fresh store by default):
    [reg.reads], [reg.writes], [poll.instances], [poll.iters],
    [irq.waits]. *)

type run_result = {
  output : float array;
  delay_s : float;  (** end-to-end inference time, virtual *)
  job_delay_s : float;  (** inference time excluding one-time setup *)
  setup_s : float;
  energy_j : float option;
}

val run_inference :
  ?energy:Grt_sim.Energy.t ->
  ?metrics:Grt_sim.Metrics.t ->
  clock:Grt_sim.Clock.t ->
  sku:Grt_gpu.Sku.t ->
  net:Grt_mlfw.Network.t ->
  seed:int64 ->
  input:float array ->
  unit ->
  run_result
(** Full native pipeline on one device: driver init, session setup, weight
    load, inference. [metrics] is passed to {!backend}. *)
