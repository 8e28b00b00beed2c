(* Differential testing of the forwarding shims (§4's correctness claim):
   for ANY driver behaviour, the client GPU must observe the same register
   access sequence under deferral/speculation as under native execution.

   We generate random "driver programs" over the backend interface and run
   each one twice: natively against a local device, and through
   DriverShim -> network -> GPUShim against a client device (in every
   recorder mode). The devices' visible states and the programs' observed
   read values must agree. *)

module Backend = Grt_driver.Backend
module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem
module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Sexpr = Grt_util.Sexpr
module Mode = Grt.Mode
module Clock = Grt_sim.Clock

(* ---- random driver programs ---- *)

(* Only time-insensitive behaviour is generated/compared: the shimmed run
   advances the virtual clock by whole RTTs, so registers that reflect
   in-flight hardware transitions (IRQ status racing an in-flight power-off)
   would diverge legitimately. Config registers, symbolic read-modify-write
   chains, power-up + readiness polls and control dependencies are the
   deterministic core the ordering guarantee (§4.1) is about. *)
type op =
  | Write_config of int * int64  (* which config reg, value *)
  | Read_config of int
  | Read_modify_write of int * int64  (* reg, OR mask — exercises symbolism *)
  | Power_on_shader
  | Poll_ready of Regs.poll_cond
  | Clear_irqs
  | Force_pending  (* control dependency on the last read *)
  | Lock_unlock
  | Delay of int
  | Hot of op list  (* nest inside a hot function *)

let config_regs = [| Regs.shader_config; Regs.tiler_config; Regs.l2_mmu_config; Regs.mmu_config |]

let gen_op : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let leaf =
    frequency
      [
        (4, map2 (fun r v -> Write_config (r, Int64.of_int v)) (int_bound 3) (int_bound 0xFFFF));
        (4, map (fun r -> Read_config r) (int_bound 3));
        (3, map2 (fun r v -> Read_modify_write (r, Int64.of_int v)) (int_bound 3) (int_bound 0xFF));
        (2, return Power_on_shader);
        (1, return (Poll_ready Regs.Bits_set));
        (2, return Clear_irqs);
        (2, return Force_pending);
        (2, return Lock_unlock);
        (1, map (fun d -> Delay (1 + d)) (int_bound 5));
      ]
  in
  frequency [ (5, leaf); (1, map (fun ops -> Hot ops) (list_size (int_range 1 5) leaf)) ]

let gen_program = QCheck2.Gen.(list_size (int_range 3 25) gen_op)

(* Interpret a program against a backend; returns observed read values. *)
let interpret (b : Backend.t) program =
  let observed = ref [] in
  let last_read = ref (Sexpr.const 0L) in
  let emit v = observed := v :: !observed in
  let rec exec op =
    match op with
    | Write_config (i, v) -> b.Backend.write_reg config_regs.(i) (Sexpr.const v)
    | Read_config i -> last_read := b.Backend.read_reg config_regs.(i)
    | Read_modify_write (i, mask) ->
      let v = b.Backend.read_reg config_regs.(i) in
      b.Backend.write_reg config_regs.(i) (Sexpr.logor v (Sexpr.const mask))
    | Power_on_shader -> b.Backend.write_reg Regs.shader_pwron_lo (Sexpr.const 0xFFL)
    | Poll_ready cond -> (
      match
        b.Backend.poll_reg ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond ~max_iters:4000
          ~spin_ns:1000L
      with
      | Backend.Poll_ok { value; _ } -> emit value
      | Backend.Poll_timeout -> emit (-1L))
    | Clear_irqs -> b.Backend.write_reg Regs.gpu_irq_clear (Sexpr.const 0xFFFF_FFFFL)
    | Force_pending -> emit (b.Backend.force !last_read)
    | Lock_unlock ->
      b.Backend.lock "diff.lock";
      b.Backend.unlock "diff.lock"
    | Delay d -> b.Backend.delay_us d
    | Hot ops ->
      b.Backend.enter_hot "kbase_diff_hot_fn";
      List.iter exec ops;
      b.Backend.exit_hot "kbase_diff_hot_fn"
  in
  List.iter exec program;
  (* Resolve anything still pending. *)
  emit (b.Backend.force !last_read);
  List.rev !observed

(* Visible device state we compare after the run (time-insensitive part;
   the clock is advanced past any pending transition first). *)
let device_state clock dev =
  Clock.advance_s clock 0.1;
  List.map
    (fun r -> Device.read_reg dev r)
    [
      Regs.shader_config; Regs.tiler_config; Regs.l2_mmu_config; Regs.mmu_config;
      Regs.shader_ready_lo;
    ]

let run_native program =
  let clock = Clock.create () in
  let mem = Mem.create () in
  let dev = Device.create ~clock ~mem ~sku:Sku.g71_mp8 ~session_salt:0L () in
  let b = Grt.Native.backend dev in
  let observed = interpret b program in
  (observed, device_state clock dev)

(* Mispredictions are part of the speculation contract: detected at
   validation and recovered by rolling both sides back and re-running
   (§4.2) — exactly what the orchestrator does. Random programs fool the
   confidence heuristic easily (their config writes vary), so the harness
   performs the same retry. Each retry teaches the history the divergent
   value, so the re-run stops speculating on that site and terminates. *)
let rec mispredict_prefix = function
  | Grt.Drivershim.Mispredict { valid_log; _ } -> Some valid_log
  | Fun.Finally_raised e -> mispredict_prefix e
  | _ -> None

let run_shimmed ~mode ?history ?(window = 1) program =
  let history = match history with Some h -> h | None -> Grt.Drivershim.fresh_history () in
  let rec attempt n prefix =
    if n > 10 then failwith "differential: too many rollbacks";
    let clock = Clock.create () in
    let metrics = Grt_sim.Metrics.create () in
    let link = Grt_net.Link.create ~clock ~metrics ~window Grt_net.Profile.wifi in
    let cfg = Mode.default_config mode in
    let gpushim = Grt.Gpushim.create ~clock ~sku:Sku.g71_mp8 ~metrics ~session_salt:0L ~cfg () in
    Grt.Gpushim.isolate gpushim;
    let cloud_mem = Mem.create () in
    let shim =
      Grt.Drivershim.create ~cfg ~link ~gpushim ~cloud_mem ~metrics ~history
        ~replay_prefix:prefix ()
    in
    match
      let observed = interpret (Grt.Drivershim.backend shim) program in
      Grt.Drivershim.finalize shim;
      (observed, device_state clock (Grt.Gpushim.device gpushim))
    with
    | result -> result
    | exception e when mispredict_prefix e <> None ->
      attempt (n + 1) (Option.get (mispredict_prefix e))
  in
  attempt 0 []

let agree program mode =
  let native_obs, native_state = run_native program in
  let shim_obs, shim_state = run_shimmed ~mode program in
  native_obs = shim_obs && native_state = shim_state

let qtest ?(count = 150) name prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen_program prop)

let diff_naive = qtest "naive forwarding == native" (fun p -> agree p Mode.Naive)

let diff_md = qtest "deferral == native" (fun p -> agree p Mode.Ours_md)

let diff_mds = qtest "deferral+speculation == native" (fun p -> agree p Mode.Ours_mds)

let diff_mds_warm =
  (* Warm the speculation history with the same program three times, then
     check the fourth (speculating) run still agrees with native. *)
  qtest ~count:60 "warmed speculation == native" (fun p ->
      let history = Grt.Drivershim.fresh_history () in
      for _ = 1 to 3 do
        ignore (run_shimmed ~mode:Mode.Ours_mds ~history p)
      done;
      let shim_obs, shim_state = run_shimmed ~mode:Mode.Ours_mds ~history p in
      let native_obs, native_state = run_native p in
      shim_obs = native_obs && shim_state = native_state)

let diff_modes_pairwise =
  qtest ~count:60 "all recorder modes observe identical values" (fun p ->
      let obs mode = fst (run_shimmed ~mode p) in
      let naive = obs Mode.Naive in
      obs Mode.Ours_m = naive && obs Mode.Ours_md = naive && obs Mode.Ours_mds = naive)

let diff_mds_pipelined =
  (* Pipelined speculation: several commits in flight over a windowed link
     (window 2, so short programs still fill it and [drain_oldest] runs).
     Validation drains in order; the client GPU must still end in the
     native state. *)
  qtest ~count:100 "pipelined speculation == native" (fun p ->
      let native_obs, native_state = run_native p in
      let shim_obs, shim_state = run_shimmed ~mode:Mode.Ours_mds ~window:2 p in
      native_obs = shim_obs && native_state = shim_state)

let diff_mds_pipelined_warm =
  qtest ~count:40 "warmed pipelined speculation == native" (fun p ->
      let history = Grt.Drivershim.fresh_history () in
      for _ = 1 to 3 do
        ignore (run_shimmed ~mode:Mode.Ours_mds ~history ~window:2 p)
      done;
      let shim_obs, shim_state = run_shimmed ~mode:Mode.Ours_mds ~history ~window:2 p in
      let native_obs, native_state = run_native p in
      shim_obs = native_obs && shim_state = native_state)

let () =
  Alcotest.run "grt_differential"
    [
      ( "shim-vs-native",
        [
          diff_naive;
          diff_md;
          diff_mds;
          diff_mds_warm;
          diff_modes_pairwise;
          diff_mds_pipelined;
          diff_mds_pipelined_warm;
        ] );
    ]
