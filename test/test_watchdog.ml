(* §3.3's motivation, reproduced: naive per-access forwarding over a slow
   link violates the GPU stack's timing assumptions — the job watchdog
   fires, the driver keeps resetting the GPU, and recording becomes
   unusable. The optimized recorder on the same link stays inside the
   window. *)

module Kbase = Grt_driver.Kbase
module Mode = Grt.Mode
module Gpushim = Grt.Gpushim
module Drivershim = Grt.Drivershim
module Memsync = Grt.Memsync
module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu
module Sku = Grt_gpu.Sku
module Shader = Grt_gpu.Shader
module Job_desc = Grt_gpu.Job_desc
module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Clock = Grt_sim.Clock

let check = Alcotest.check

(* One ReLU job driven through the full remote pipeline on [profile]. *)
let run_one_job ~mode ~profile =
  let clock = Clock.create () in
  let metrics = Grt_sim.Metrics.create () in
  let link = Link.create ~clock ~metrics profile in
  let cfg = Mode.default_config mode in
  let gpushim = Gpushim.create ~clock ~sku:Sku.g71_mp8 ~metrics ~session_salt:3L ~cfg () in
  Gpushim.isolate gpushim;
  let cloud_mem = Mem.create () in
  let shim = Drivershim.create ~cfg ~link ~gpushim ~cloud_mem ~metrics () in
  let drv = Kbase.create ~backend:(Drivershim.backend shim) ~mem:cloud_mem ~coherency_ace:true in
  Kbase.init drv;
  let mmu = Kbase.create_address_space drv ~as_idx:1 in
  let shader_bin = Shader.compile ~sku:Sku.g71_mp8 ~op:Shader.Relu in
  let code_pa = Mem.alloc_pages cloud_mem 1 in
  Mem.write_bytes cloud_mem code_pa shader_bin;
  let data_pa = Mem.alloc_pages cloud_mem 1 in
  let desc_pa = Mem.alloc_pages cloud_mem 1 in
  Kbase.map_region drv ~mmu ~as_idx:1 ~va:0x10_0000L ~pa:code_pa ~pages:1 ~flags:Mmu.rx_code;
  Kbase.map_region drv ~mmu ~as_idx:1 ~va:0x20_0000L ~pa:data_pa ~pages:1 ~flags:Mmu.rw_data;
  Kbase.map_region drv ~mmu ~as_idx:1 ~va:0x30_0000L ~pa:desc_pa ~pages:1 ~flags:Mmu.rw_data;
  (* Classify regions so memory sync works on this hand-built session. *)
  List.iter
    (fun (name, usage, pa, va) ->
      let r =
        {
          Memsync.name;
          meta = Grt_runtime.Session.usage_is_metastate usage;
          va;
          pa;
          model_bytes = Mem.page_size;
          actual_bytes = Mem.page_size;
        }
      in
      Memsync.register_region (Drivershim.downlink shim) r;
      Memsync.register_region (Gpushim.uplink gpushim) r)
    [
      ("code", Grt_runtime.Session.Code, code_pa, 0x10_0000L);
      ("data", Grt_runtime.Session.Scratch, data_pa, 0x20_0000L);
      ("cmd", Grt_runtime.Session.Cmd, desc_pa, 0x30_0000L);
    ];
  Job_desc.write cloud_mem ~pa:desc_pa
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
  let outcome =
    match Kbase.run_job drv ~as_idx:1 ~chain_va:0x30_0000L with
    | () -> `Completed
    | exception Kbase.Driver_error msg -> `Failed msg
  in
  (outcome, Kbase.hang_recoveries drv)

(* A pathologically slow link: each naive register access costs ~1.2 s. *)
let swamp = Profile.custom ~name:"swamp" ~rtt_ms:1200.0 ~bandwidth_mbps:2.0

let naive_healthy_on_wifi () =
  let outcome, hangs = run_one_job ~mode:Mode.Naive ~profile:Profile.wifi in
  check Alcotest.bool "completes" true (outcome = `Completed);
  check Alcotest.int "no watchdog resets" 0 hangs

let naive_thrashes_on_slow_link () =
  (* The submission path alone (several accesses x 1.2 s) blows the 4 s
     watchdog: the driver resets and retries until it gives up. *)
  let outcome, hangs = run_one_job ~mode:Mode.Naive ~profile:swamp in
  (match outcome with
  | `Failed msg ->
    check Alcotest.bool "gives up on persistent hang" true
      (String.length msg > 0)
  | `Completed -> Alcotest.fail "naive forwarding should be unusable on this link");
  check Alcotest.bool "watchdog fired repeatedly" true (hangs >= 3)

let optimized_survives_slow_link () =
  (* With deferral + speculation the submit batch is one commit, well
     inside the watchdog window even on the swamp link. *)
  let outcome, hangs = run_one_job ~mode:Mode.Ours_mds ~profile:swamp in
  check Alcotest.bool "completes" true (outcome = `Completed);
  check Alcotest.int "no watchdog resets" 0 hangs

let deferral_alone_survives () =
  let outcome, _ = run_one_job ~mode:Mode.Ours_md ~profile:swamp in
  check Alcotest.bool "completes" true (outcome = `Completed)

let native_never_hangs () =
  (* Sanity: local execution is orders of magnitude inside the window. *)
  let clock = Clock.create () in
  let plan = Grt_mlfw.Network.expand Grt_mlfw.Zoo.mnist in
  let input = Grt_mlfw.Runner.input_values plan ~seed:1L in
  let r =
    Grt.Native.run_inference ~clock ~sku:Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed:1L ~input ()
  in
  check Alcotest.bool "ran" true (Array.length r.Grt.Native.output > 0)

let () =
  Alcotest.run "grt_watchdog"
    [
      ( "timing-assumptions",
        [
          Alcotest.test_case "naive healthy on wifi" `Quick naive_healthy_on_wifi;
          Alcotest.test_case "naive thrashes on slow link" `Quick naive_thrashes_on_slow_link;
          Alcotest.test_case "GR-T survives slow link" `Quick optimized_survives_slow_link;
          Alcotest.test_case "deferral alone survives" `Quick deferral_alone_survives;
          Alcotest.test_case "native never hangs" `Quick native_never_hangs;
        ] );
    ]
