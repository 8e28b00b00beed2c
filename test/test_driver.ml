(* Tests for the kbase-style driver running on the native backend against a
   local device: probe, quirks, power cycling, MMU management, job
   submission and fault propagation. *)

module Kbase = Grt_driver.Kbase
module Backend = Grt_driver.Backend
module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu
module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Shader = Grt_gpu.Shader
module Job_desc = Grt_gpu.Job_desc
module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics

let check = Alcotest.check

let make ?(sku = Sku.g71_mp8) ?(coherency_ace = true) () =
  let clock = Clock.create () in
  let counters = Metrics.create () in
  let mem = Mem.create () in
  let dev = Device.create ~clock ~mem ~sku ~session_salt:7L () in
  let b = Grt.Native.backend ~metrics:counters dev in
  let drv = Kbase.create ~backend:b ~mem ~coherency_ace in
  (drv, dev, mem, clock, counters)

let driver_init_discovers_hardware () =
  let drv, _, _, _, _ = make () in
  Kbase.init drv;
  check Alcotest.int64 "gpu id" Sku.g71_mp8.Sku.gpu_id (Kbase.gpu_id drv);
  check Alcotest.int64 "shader mask" 0xFFL (Kbase.shader_present drv);
  check Alcotest.bool "pt format" true (Kbase.pt_format drv = Sku.Lpae_v7);
  check Alcotest.bool "powered after init" true (Kbase.powered drv)

let driver_detects_v8_format () =
  let drv, _, _, _, _ = make ~sku:Sku.g52_mp4 () in
  Kbase.init drv;
  check Alcotest.bool "v8 detected from MMU_FEATURES" true (Kbase.pt_format drv = Sku.Lpae_v8)

let driver_applies_quirks () =
  (* Listing 1(a): on an ACE platform MMU_CONFIG must have the snoop
     disparity bit OR'd in after init. *)
  let drv, dev, _, _, _ = make ~coherency_ace:true () in
  Kbase.init drv;
  let v = Device.read_reg dev Regs.mmu_config in
  check Alcotest.bool "snoop disparity set" true (Int64.logand v 0x10L <> 0L);
  (* Reset value is preserved underneath. *)
  check Alcotest.bool "quirk bits preserved" true
    (Int64.logand v Sku.g71_mp8.Sku.quirk_mmu_config = Sku.g71_mp8.Sku.quirk_mmu_config)

let driver_no_quirk_without_ace () =
  let drv, dev, _, _, _ = make ~coherency_ace:false () in
  Kbase.init drv;
  check Alcotest.bool "no snoop disparity" true
    (Int64.logand (Device.read_reg dev Regs.mmu_config) 0x10L
    = Int64.logand Sku.g71_mp8.Sku.quirk_mmu_config 0x10L)

let driver_double_init_rejected () =
  let drv, _, _, _, _ = make () in
  Kbase.init drv;
  match Kbase.init drv with
  | () -> Alcotest.fail "double init"
  | exception Kbase.Driver_error _ -> ()

let driver_power_cycles_cores () =
  let drv, dev, _, _, _ = make () in
  Kbase.init drv;
  check Alcotest.int64 "cores ready" 0xFFL (Device.read_reg dev Regs.shader_ready_lo);
  Kbase.shutdown drv;
  check Alcotest.int64 "cores off after shutdown" 0L (Device.read_reg dev Regs.shader_ready_lo);
  check Alcotest.bool "not powered" false (Kbase.powered drv)

(* Full pipeline: map a ReLU job and run it through Kbase.run_job. *)
let run_relu_job () =
  let drv, _, mem, _, counters = make () in
  Kbase.init drv;
  let mmu = Kbase.create_address_space drv ~as_idx:2 in
  let shader_bin = Shader.compile ~sku:Sku.g71_mp8 ~op:Shader.Relu in
  let code_pa = Mem.alloc_pages mem 1 in
  Mem.write_bytes mem code_pa shader_bin;
  let data_pa = Mem.alloc_pages mem 1 in
  let desc_pa = Mem.alloc_pages mem 1 in
  Kbase.map_region drv ~mmu ~as_idx:2 ~va:0x10_0000L ~pa:code_pa ~pages:1 ~flags:Mmu.rx_code;
  Kbase.map_region drv ~mmu ~as_idx:2 ~va:0x20_0000L ~pa:data_pa ~pages:1 ~flags:Mmu.rw_data;
  Kbase.map_region drv ~mmu ~as_idx:2 ~va:0x30_0000L ~pa:desc_pa ~pages:1 ~flags:Mmu.rw_data;
  List.iteri
    (fun i v -> Mem.write_f32 mem (Int64.add data_pa (Int64.of_int (4 * i))) v)
    [ -2.0; 5.0 ];
  Job_desc.write mem ~pa:desc_pa
    {
      Job_desc.op = Shader.Relu;
      shader_va = 0x10_0000L;
      input_va = 0x20_0000L;
      input2_va = 0L;
      bias_va = 0L;
      output_va = 0x20_0100L;
      params =
        {
          Job_desc.default_params with
          Job_desc.in_c = 2;
          in_h = 1;
          in_w = 1;
          out_c = 2;
          out_h = 1;
          out_w = 1;
          flops_hint = 100L;
        };
      next_va = 0L;
    };
  (drv, mem, data_pa, desc_pa, counters)

let driver_runs_job () =
  let drv, mem, data_pa, desc_pa, _ = run_relu_job () in
  Kbase.run_job drv ~as_idx:2 ~chain_va:0x30_0000L;
  check Alcotest.bool "descriptor done" true (Job_desc.read_status mem ~pa:desc_pa = Job_desc.Done);
  check (Alcotest.float 1e-6) "relu(-2)" 0.0 (Mem.read_f32 mem (Int64.add data_pa 0x100L));
  check (Alcotest.float 1e-6) "relu(5)" 5.0 (Mem.read_f32 mem (Int64.add data_pa 0x104L));
  check Alcotest.int "one submission" 1 (Kbase.jobs_submitted drv)

let driver_serializes_jobs () =
  let drv, _, _, _, _counters = run_relu_job () in
  Kbase.run_job drv ~as_idx:2 ~chain_va:0x30_0000L;
  Kbase.run_job drv ~as_idx:2 ~chain_va:0x30_0000L;
  Kbase.run_job drv ~as_idx:2 ~chain_va:0x30_0000L;
  check Alcotest.int "three serialized submissions" 3 (Kbase.jobs_submitted drv)

let driver_powers_down_between_jobs () =
  let drv, _, _, _, _ = run_relu_job () in
  Kbase.run_job drv ~as_idx:2 ~chain_va:0x30_0000L;
  (* After the pipeline, shader cores are parked. *)
  check Alcotest.bool "shaders parked after job" false (Kbase.powered drv)

let driver_job_fault_raises () =
  let drv, _, _, _, _ = run_relu_job () in
  match Kbase.run_job drv ~as_idx:2 ~chain_va:0x66_0000L (* unmapped *) with
  | () -> Alcotest.fail "fault not raised"
  | exception Kbase.Driver_error msg ->
    check Alcotest.bool "mentions fault" true (String.length msg > 0)

let driver_run_before_init () =
  let drv, _, _, _, _ = make () in
  match Kbase.run_job drv ~as_idx:0 ~chain_va:0x1000L with
  | () -> Alcotest.fail "should reject"
  | exception Kbase.Driver_error _ -> ()

let driver_as_not_present () =
  let drv, _, _, _, _ = make ~sku:Sku.g31_mp2 () in
  Kbase.init drv;
  (* G31 exposes only 4 address spaces. *)
  match Kbase.create_address_space drv ~as_idx:6 with
  | _ -> Alcotest.fail "AS 6 should not exist on G31"
  | exception Kbase.Driver_error _ -> ()

let driver_register_traffic_profile () =
  (* The recorder's whole premise: driver activity is dominated by register
     reads (>90% of accesses are reads in the paper's measurement; our
     modeled driver is more write-heavy at init but reads dominate polling).
     Check the gross counts are in sane ranges. *)
  let drv, _, _, _, counters = make () in
  Kbase.init drv;
  let reads = Metrics.get_int counters Metrics.Reg_reads in
  let writes = Metrics.get_int counters Metrics.Reg_writes in
  check Alcotest.bool "init does >40 accesses" true (reads + writes > 40);
  check Alcotest.bool "polls happened" true (Metrics.get_int counters Metrics.Poll_instances > 0)

let driver_block_mapping () =
  let drv, _, mem, _, _ = make () in
  Kbase.init drv;
  let mmu = Kbase.create_address_space drv ~as_idx:1 in
  Kbase.map_block_region drv ~mmu ~as_idx:1 ~va:(Int64.of_int (1 lsl 21))
    ~pa:(Int64.of_int (16 * (1 lsl 21))) ~blocks:2 ~flags:Mmu.ro_data;
  ignore mem;
  match Mmu.translate mmu ~va:(Int64.of_int ((1 lsl 21) + 123)) ~access:`Read with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "block mapping not visible"

let () =
  Alcotest.run "grt_driver"
    [
      ( "init",
        [
          Alcotest.test_case "discovers hardware" `Quick driver_init_discovers_hardware;
          Alcotest.test_case "detects v8 page tables" `Quick driver_detects_v8_format;
          Alcotest.test_case "applies quirks (listing 1a)" `Quick driver_applies_quirks;
          Alcotest.test_case "no quirk without ACE" `Quick driver_no_quirk_without_ace;
          Alcotest.test_case "double init rejected" `Quick driver_double_init_rejected;
          Alcotest.test_case "power cycles" `Quick driver_power_cycles_cores;
          Alcotest.test_case "register traffic profile" `Quick driver_register_traffic_profile;
        ] );
      ( "jobs",
        [
          Alcotest.test_case "runs a job" `Quick driver_runs_job;
          Alcotest.test_case "serializes jobs" `Quick driver_serializes_jobs;
          Alcotest.test_case "parks cores between jobs" `Quick driver_powers_down_between_jobs;
          Alcotest.test_case "job fault raises" `Quick driver_job_fault_raises;
          Alcotest.test_case "run before init" `Quick driver_run_before_init;
        ] );
      ( "mmu",
        [
          Alcotest.test_case "absent AS rejected" `Quick driver_as_not_present;
          Alcotest.test_case "block mapping" `Quick driver_block_mapping;
        ] );
    ]
