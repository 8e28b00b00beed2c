module Backend = Grt_driver.Backend
module Device = Grt_gpu.Device
module Sexpr = Grt_util.Sexpr
module Metrics = Grt_sim.Metrics

let backend ?metrics dev =
  let count key = match metrics with Some m -> Metrics.incr m key | None -> () in
  let clock = Device.clock dev in
  let read_reg reg =
    count Metrics.Reg_reads;
    Sexpr.const (Device.read_reg dev reg)
  in
  let write_reg reg v =
    count Metrics.Reg_writes;
    Device.write_reg dev reg (Sexpr.force_exn v)
  in
  let poll_reg ~reg ~mask ~cond ~max_iters ~spin_ns =
    count Metrics.Poll_instances;
    let rec loop i =
      if i >= max_iters then Backend.Poll_timeout
      else begin
        let v = Device.read_reg dev reg in
        count Metrics.Reg_reads;
        count Metrics.Poll_iters;
        let ok =
          match cond with
          | Backend.Bits_set -> Int64.logand v mask = mask
          | Backend.Bits_clear -> Int64.logand v mask = 0L
        in
        if ok then Backend.Poll_ok { iters = i + 1; value = v }
        else begin
          Grt_sim.Clock.advance_ns clock spin_ns;
          loop (i + 1)
        end
      end
    in
    loop 0
  in
  {
    Backend.read_reg;
    write_reg;
    force = Sexpr.force_exn;
    poll_reg;
    delay_us = (fun us -> Grt_sim.Clock.advance_ns clock (Int64.of_int (us * 1000)));
    lock = (fun _ -> ());
    unlock = (fun _ -> ());
    externalize = (fun _ -> ());
    now_us = (fun () -> Int64.div (Grt_sim.Clock.now_ns clock) 1000L);
    wait_irq =
      (fun ~timeout_us ->
        count Metrics.Irq_waits;
        Device.wait_for_irq dev ~timeout_ns:(Int64.of_int (timeout_us * 1000)));
    irq_scope = (fun f -> f ());
    enter_hot = (fun _ -> ());
    exit_hot = (fun _ -> ());
  }

type run_result = {
  output : float array;
  delay_s : float;
  job_delay_s : float;
  setup_s : float;
  energy_j : float option;
}

let run_inference ?energy ?metrics ~clock ~sku ~net ~seed ~input () =
  let mem = Grt_gpu.Mem.create () in
  let dev =
    Device.create ?energy ~clock ~mem ~sku
      ~session_salt:(Grt_util.Hashing.fnv1a_string ("native:" ^ net.Grt_mlfw.Network.name))
      ()
  in
  let b = backend ?metrics dev in
  let drv = Grt_driver.Kbase.create ~backend:b ~mem ~coherency_ace:true in
  let start = Grt_sim.Clock.now_s clock in
  let energy_start = Option.map Grt_sim.Energy.total_j energy in
  Grt_driver.Kbase.init drv;
  let session = Grt_runtime.Session.create ~drv ~as_idx:1 ~clock ?energy () in
  let plan = Grt_mlfw.Network.expand net in
  let runner = Grt_mlfw.Runner.setup ~session ~plan ~seed ~load_weights:true in
  Grt_mlfw.Runner.set_input runner input;
  let setup_done = Grt_sim.Clock.now_s clock in
  Grt_mlfw.Runner.run runner;
  let output = Grt_mlfw.Runner.get_output runner in
  Grt_driver.Kbase.shutdown drv;
  let finish = Grt_sim.Clock.now_s clock in
  {
    output;
    delay_s = finish -. start;
    job_delay_s = finish -. setup_done;
    setup_s = setup_done -. start;
    energy_j =
      (match (energy, energy_start) with
      | Some e, Some j0 -> Some (Grt_sim.Energy.total_j e -. j0)
      | _ -> None);
  }
