(* Tests for the GR-T core: recording format, memory synchronization,
   GPUShim batch application, and the DriverShim deferral/speculation
   machinery (§4, §5). *)

module Recording = Grt.Recording
module Memsync = Grt.Memsync
module Gpushim = Grt.Gpushim
module Drivershim = Grt.Drivershim
module Mode = Grt.Mode
module Kbase = Grt_driver.Kbase
module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem
module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Sexpr = Grt_util.Sexpr
module Session = Grt_runtime.Session
module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics

let check = Alcotest.check

(* ---- Recording ---- *)

let sample_recording () =
  {
    Recording.workload = "MNIST";
    gpu_id = Sku.g71_mp8.Sku.gpu_id;
    entries =
      [|
        Recording.Mem_load { pages = [ (0x100L, Bytes.make Mem.page_size 'p') ] };
        Recording.Reg_write { reg = Regs.gpu_command; value = 1L };
        Recording.Poll
          {
            reg = Regs.gpu_irq_rawstat;
            mask = Regs.irq_reset_completed;
            cond = Recording.Until_set;
            max_iters = 100;
            spin_ns = 1000L;
          };
        Recording.Reg_read { reg = Regs.gpu_id; value = Sku.g71_mp8.Sku.gpu_id; verify = true };
        Recording.Reg_read { reg = Regs.latest_flush_id; value = 7L; verify = false };
        Recording.Wait_irq { line = 0 };
      |];
    slots =
      [
        {
          Recording.slot_name = "input";
          kind = `Input;
          va = 0x4000_0000L;
          pa = 0x10_0000L;
          actual_bytes = 3136;
          model_bytes = 3136;
        };
        {
          Recording.slot_name = "act.08";
          kind = `Output;
          va = 0x4100_0000L;
          pa = 0x20_0000L;
          actual_bytes = 40;
          model_bytes = 40;
        };
        {
          Recording.slot_name = "w.01";
          kind = `Param;
          va = 0x4200_0000L;
          pa = 0x30_0000L;
          actual_bytes = 600;
          model_bytes = 600;
        };
      ];
  }

let recording_roundtrip () =
  let r = sample_recording () in
  match Recording.verify_and_parse ~key:"cloudkey" (Recording.sign ~key:"cloudkey" r) with
  | Ok r' ->
    check Alcotest.string "workload" r.Recording.workload r'.Recording.workload;
    check Alcotest.int64 "gpu id" r.Recording.gpu_id r'.Recording.gpu_id;
    check Alcotest.int "entries" (Array.length r.Recording.entries)
      (Array.length r'.Recording.entries);
    check Alcotest.bool "entries equal" true (r.Recording.entries = r'.Recording.entries);
    check Alcotest.bool "slots equal" true (r.Recording.slots = r'.Recording.slots)
  | Error e -> Alcotest.fail e

let recording_sign_verify () =
  let r = sample_recording () in
  let blob = Recording.sign ~key:"cloudkey" r in
  (match Recording.verify_and_parse ~key:"cloudkey" blob with
  | Ok r' -> check Alcotest.string "verified" "MNIST" r'.Recording.workload
  | Error e -> Alcotest.fail e);
  match Recording.verify_and_parse ~key:"otherkey" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let recording_tamper_rejected () =
  (* A local adversary who flips bits in the downloaded recording must be
     caught before replay (§7.1 replay integrity). *)
  let blob = Recording.sign ~key:"cloudkey" (sample_recording ()) in
  Bytes.set blob 40 (Char.chr (Char.code (Bytes.get blob 40) lxor 0x80));
  match Recording.verify_and_parse ~key:"cloudkey" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered recording accepted"

let recording_counts_and_slots () =
  let r = sample_recording () in
  check Alcotest.int "writes" 1 (Recording.count_entries r `Writes);
  check Alcotest.int "reads" 2 (Recording.count_entries r `Reads);
  check Alcotest.int "polls" 1 (Recording.count_entries r `Polls);
  check Alcotest.int "irqs" 1 (Recording.count_entries r `Irqs);
  check Alcotest.int "pages" 1 (Recording.count_entries r `Mem_pages);
  check Alcotest.bool "input slot" true
    ((Option.get (Recording.input_slot r)).Recording.slot_name = "input");
  check Alcotest.bool "output slot" true
    ((Option.get (Recording.output_slot r)).Recording.slot_name = "act.08");
  check Alcotest.int "param slots" 1 (List.length (Recording.param_slots r))

let gen_entry =
  let open QCheck2.Gen in
  let reg = map (fun r -> r land 0x3FFC) nat in
  frequency
    [
      (4, map2 (fun r v -> Recording.Reg_write { reg = r; value = v }) reg int64);
      ( 4,
        map3
          (fun r v verify -> Recording.Reg_read { reg = r; value = v; verify })
          reg int64 bool );
      ( 2,
        map3
          (fun r m iters ->
            Recording.Poll
              { reg = r; mask = m; cond = Recording.Until_set; max_iters = iters; spin_ns = 1000L })
          reg int64 small_nat );
      (1, map (fun l -> Recording.Wait_irq { line = l mod 3 }) small_nat);
      ( 1,
        map
          (fun pages ->
            Recording.Mem_load
              {
                pages =
                  List.map
                    (fun (pfn, fill) ->
                      (Int64.of_int pfn, Bytes.make Mem.page_size (Char.chr (fill land 0xFF))))
                    pages;
              })
          (list_size (int_bound 3) (pair small_nat small_nat)) );
    ]

let recording_qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"arbitrary recordings roundtrip"
       QCheck2.Gen.(list_size (int_bound 40) gen_entry)
       (fun entries ->
         let r =
           {
             Recording.workload = "prop";
             gpu_id = 0x1234L;
             entries = Array.of_list entries;
             slots = [];
           }
         in
         match Recording.verify_and_parse ~key:"k" (Recording.sign ~key:"k" r) with
         | Ok r' -> r'.Recording.entries = r.Recording.entries
         | Error _ -> false))

(* [verify] gives a verdict without decoding entries; it must agree with the
   full parse on every blob [sign] produces and on every tampering of one. *)
let verdicts_agree blob =
  Result.is_ok (Recording.verify ~key:"k" blob)
  = Result.is_ok (Recording.verify_and_parse ~key:"k" blob)

let rejected blob = verdicts_agree blob && Result.is_error (Recording.verify ~key:"k" blob)

(* Offsets of each chunk body in a signed blob, and their lengths. *)
let chunk_spans blob =
  match Recording.parse_signed ~key:"k" blob with
  | Error e -> failwith e
  | Ok v ->
    let lens = Array.map (fun c -> Bytes.length c.Recording.chunk_raw) v.Recording.vchunks in
    let pos = ref (Bytes.length blob - Array.fold_left ( + ) 0 lens) in
    Array.map
      (fun len ->
        let at = !pos in
        pos := at + len;
        (at, len))
      lens

let recording_qcheck_signature =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"bit flips anywhere break the signature"
       QCheck2.Gen.(
         pair
           (pair (list_size (int_range 1 20) gen_entry) (list_size (int_range 1 20) gen_entry))
           (pair (pair small_nat (int_range 1 255)) (pair small_nat (pair small_nat small_nat))))
       (fun ((entries, other), ((pos, delta), (cut, (into, from)))) ->
         (* Small chunks give the splice several chunk boundaries. *)
         let signed entries =
           Recording.sign ~chunk_entries:4 ~key:"k"
             { Recording.workload = "prop"; gpu_id = 0x1234L; entries = Array.of_list entries; slots = [] }
         in
         let blob = signed entries in
         let donor = signed other in
         let flipped = Bytes.copy blob in
         let pos = pos mod Bytes.length blob in
         Bytes.set flipped pos (Char.chr (Char.code (Bytes.get blob pos) lxor delta));
         let truncated = Bytes.sub blob 0 (cut mod Bytes.length blob) in
         let spans = chunk_spans blob and donor_spans = chunk_spans donor in
         let at, len = spans.(into mod Array.length spans) in
         let d_at, d_len = donor_spans.(from mod Array.length donor_spans) in
         let spliced =
           Bytes.concat Bytes.empty
             [
               Bytes.sub blob 0 at;
               Bytes.sub donor d_at d_len;
               Bytes.sub blob (at + len) (Bytes.length blob - at - len);
             ]
         in
         Result.is_ok (Recording.verify ~key:"k" blob)
         && verdicts_agree blob && rejected flipped && rejected truncated
         && if Bytes.equal spliced blob then verdicts_agree spliced else rejected spliced))

let recording_garbage_rejected () =
  (* There is one wire format: a version-1 header gets a typed error. *)
  let v1 = Recording.sign ~key:"k" (sample_recording ()) in
  Bytes.set_uint16_le v1 4 1;
  List.iter
    (fun (what, blob) ->
      (match Recording.verify ~key:"k" blob with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s verified" what);
      match Recording.verify_and_parse ~key:"k" blob with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s parsed" what)
    [ ("garbage", Bytes.of_string "not a recording at all...."); ("a version-1 blob", v1) ];
  check Alcotest.(result unit string) "version named" (Error "recording: unsupported version 1")
    (Recording.verify ~key:"k" v1)

(* ---- Memsync ---- *)

let mk_region ~name ~usage ~pa ~bytes =
  {
    Memsync.name;
    usage;
    va = Int64.add 0x4000_0000L pa;
    pa;
    model_bytes = bytes;
    actual_bytes = bytes;
  }

let memsync_meta_classification () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let code_pa = Mem.alloc_pages mem 1 in
  let data_pa = Mem.alloc_pages mem 2 in
  Mem.write_u8 mem code_pa 1;
  Mem.write_u8 mem data_pa 1;
  Memsync.register_region ms (mk_region ~name:"shader" ~usage:Session.Code ~pa:code_pa ~bytes:128);
  Memsync.register_region ms (mk_region ~name:"weights" ~usage:Session.Weights ~pa:data_pa ~bytes:8192);
  let metas = Memsync.meta_pfns ms mem in
  check Alcotest.bool "code page is meta" true (List.mem (Mem.page_of_addr code_pa) metas);
  check Alcotest.bool "weights are not" false (List.mem (Mem.page_of_addr data_pa) metas)

let memsync_pt_pages_are_meta () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let mmu = Grt_gpu.Mmu.create mem ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages mem 1 in
  Grt_gpu.Mmu.map_page mmu ~va:0x1000L ~pa ~flags:Grt_gpu.Mmu.rw_data;
  Memsync.register_pt_root ms ~fmt:Sku.Lpae_v7 ~root_pa:(Grt_gpu.Mmu.root_pa mmu);
  check Alcotest.int "all three table levels" 3 (List.length (Memsync.meta_pfns ms mem))

let memsync_sync_and_baseline () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let code_pa = Mem.alloc_pages mem 1 in
  Mem.write_u32 mem code_pa 0xAAL;
  Memsync.register_region ms (mk_region ~name:"cmd" ~usage:Session.Cmd ~pa:code_pa ~bytes:64);
  let p1 = Memsync.sync_meta ms mem in
  check Alcotest.int "first sync ships page" 1 (List.length p1.Memsync.records);
  let p2 = Memsync.sync_meta ms mem in
  check Alcotest.int "unchanged page not re-shipped" 0 (List.length p2.Memsync.records);
  Mem.write_u32 mem code_pa 0xBBL;
  let p3 = Memsync.sync_meta ms mem in
  check Alcotest.int "changed page ships again" 1 (List.length p3.Memsync.records);
  check Alcotest.bool "delta+compressed smaller than raw" true
    (p3.Memsync.wire_bytes < p3.Memsync.raw_bytes)

let memsync_apply_and_note () =
  let src = Mem.create () and dst = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let pa = Mem.alloc_pages src 1 in
  Mem.write_u32 src pa 0x1234L;
  Memsync.register_region ms (mk_region ~name:"cmd" ~usage:Session.Cmd ~pa ~bytes:64);
  let p = Memsync.sync_meta ms src in
  Memsync.apply (Memsync.create (Mode.default_config Mode.Ours_m)) dst p;
  check Alcotest.int64 "applied" 0x1234L (Mem.read_u32 dst pa);
  (* note_peer_page prevents echo *)
  let ms2 = Memsync.create (Mode.default_config Mode.Ours_m) in
  Memsync.register_region ms2 (mk_region ~name:"cmd" ~usage:Session.Cmd ~pa ~bytes:64);
  List.iter (fun (pfn, data) -> Memsync.note_peer_page ms2 pfn data) (Memsync.pages p);
  let echo = Memsync.sync_meta ms2 src in
  check Alcotest.int "no echo" 0 (List.length echo.Memsync.records)

let memsync_naive_ship_once () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Naive) in
  (* Build a chain region + weight + output regions, write a descriptor. *)
  let cmd_pa = Mem.alloc_pages mem 1 in
  let w_pa = Mem.alloc_pages mem 1 in
  let out_pa = Mem.alloc_pages mem 1 in
  let cmd = mk_region ~name:"cmd" ~usage:Session.Cmd ~pa:cmd_pa ~bytes:256 in
  let w = mk_region ~name:"w" ~usage:Session.Weights ~pa:w_pa ~bytes:4096 in
  let out = mk_region ~name:"out" ~usage:Session.Output ~pa:out_pa ~bytes:2048 in
  Memsync.register_region ms cmd;
  Memsync.register_region ms w;
  Memsync.register_region ms out;
  Grt_gpu.Job_desc.write mem ~pa:cmd_pa
    {
      Grt_gpu.Job_desc.op = Grt_gpu.Shader.Fc;
      shader_va = 0L;
      input_va = w.Memsync.va;
      input2_va = 0L;
      bias_va = 0L;
      output_va = out.Memsync.va;
      params = Grt_gpu.Job_desc.default_params;
      next_va = 0L;
    };
  let d1 = Memsync.naive_down_bytes ms mem ~chain_va:cmd.Memsync.va in
  check Alcotest.int "first job ships weights+output" (4096 + 2048) d1;
  let d2 = Memsync.naive_down_bytes ms mem ~chain_va:cmd.Memsync.va in
  check Alcotest.int "second job ships nothing new" 0 d2;
  let u = Memsync.naive_up_bytes ms mem ~chain_va:cmd.Memsync.va in
  check Alcotest.int "output comes back every job" 2048 u

(* ---- Gpushim ---- *)

let mk_gpushim () =
  let clock = Clock.create () in
  Gpushim.create ~clock ~sku:Sku.g71_mp8 ~session_salt:9L
    ~cfg:(Mode.default_config Mode.Ours_mds) ()

let gpushim_requires_isolation () =
  let g = mk_gpushim () in
  (match Gpushim.apply_accesses g [ Gpushim.W_read Regs.gpu_id ] with
  | _ -> Alcotest.fail "worked without isolation"
  | exception Gpushim.Not_isolated -> ());
  Gpushim.isolate g;
  check Alcotest.bool "isolated" true (Gpushim.isolated g);
  check (Alcotest.list Alcotest.int64) "read works when isolated"
    [ Sku.g71_mp8.Sku.gpu_id ]
    (Array.to_list (Gpushim.apply_accesses g [ Gpushim.W_read Regs.gpu_id ]))

let gpushim_tzasc_blocks_normal_world () =
  let g = mk_gpushim () in
  Gpushim.isolate g;
  (match Grt_tee.Worlds.check_access (Gpushim.worlds g) Grt_tee.Worlds.Normal ~name:"gpu-mmio" with
  | () -> Alcotest.fail "normal world touched locked GPU"
  | exception Grt_tee.Worlds.Access_denied _ -> ());
  Gpushim.release g;
  Grt_tee.Worlds.check_access (Gpushim.worlds g) Grt_tee.Worlds.Normal ~name:"gpu-mmio"

let gpushim_batch_refs () =
  (* Listing 1(a) on the wire: read MMU_CONFIG, then write back
     (batch_value | 0x10) — resolved incrementally while applying. *)
  let g = mk_gpushim () in
  Gpushim.isolate g;
  let quirk = Sku.g71_mp8.Sku.quirk_mmu_config in
  let results =
    Gpushim.apply_accesses g
      [
        Gpushim.W_read Regs.mmu_config;
        Gpushim.W_write (Regs.mmu_config, Gpushim.Bop (Sexpr.Or, Gpushim.Batch 0, Gpushim.Lit 0x10L));
        Gpushim.W_read Regs.mmu_config;
      ]
  in
  (match Array.to_list results with
  | [ first; second ] ->
    check Alcotest.int64 "first read is reset value" quirk first;
    check Alcotest.int64 "second read sees resolved write" (Int64.logor quirk 0x10L) second
  | _ -> Alcotest.fail "expected two read results");
  (* Forward references must be rejected. *)
  match
    Gpushim.apply_accesses g [ Gpushim.W_write (Regs.mmu_config, Gpushim.Batch 0) ]
  with
  | _ -> Alcotest.fail "forward batch reference accepted"
  | exception Failure _ -> ()

let gpushim_poll_and_reset () =
  let g = mk_gpushim () in
  Gpushim.isolate g;
  (* Kick a power-up, then offload-poll for readiness. *)
  ignore (Gpushim.apply_accesses g [ Gpushim.W_write (Regs.shader_pwron_lo, Gpushim.Lit 0xFFL) ]);
  (match
     Gpushim.run_poll g ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond:Grt_driver.Backend.Bits_set
       ~max_iters:100000 ~spin_ns:1000L
   with
  | Some (iters, value) ->
    check Alcotest.int64 "poll result" 0xFFL value;
    check Alcotest.bool "took iterations" true (iters > 1)
  | None -> Alcotest.fail "poll timed out");
  Gpushim.reset_gpu g;
  check Alcotest.int64 "reset cleared cores" 0L
    (Device.read_reg (Gpushim.device g) Regs.shader_ready_lo)

(* ---- Drivershim mechanisms (through the real driver) ---- *)

type rig = {
  shim : Drivershim.t;
  gpushim : Gpushim.t;
  drv : Kbase.t;
  cloud_mem : Mem.t;
  counters : Metrics.t;
  clock : Clock.t;
}

let mk_rig ?(mode = Mode.Ours_md) ?history ?config () =
  let clock = Clock.create () in
  let counters = Metrics.create () in
  let link = Link.create ~clock ~metrics:counters Profile.wifi in
  let cfg = match config with Some c -> c | None -> Mode.default_config mode in
  let gpushim = Gpushim.create ~clock ~sku:Sku.g71_mp8 ~metrics:counters ~session_salt:4L ~cfg () in
  Gpushim.isolate gpushim;
  let cloud_mem = Mem.create () in
  let shim = Drivershim.create ~cfg ~link ~gpushim ~cloud_mem ~metrics:counters ?history () in
  let drv = Kbase.create ~backend:(Drivershim.backend shim) ~mem:cloud_mem ~coherency_ace:true in
  { shim; gpushim; drv; cloud_mem; counters; clock }

let drivershim_defers_and_batches () =
  let r = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let accesses = Drivershim.accesses_total r.shim in
  let commits = Drivershim.commits_total r.shim in
  check Alcotest.bool "some deferral happened" true (Drivershim.accesses_deferred r.shim > 0);
  check Alcotest.bool "batching: fewer commits than accesses" true (commits < accesses)

let drivershim_symbolic_quirk_reaches_client () =
  (* The Listing 1(a) data dependency, end to end: after init, the CLIENT
     device must hold MMU_CONFIG = quirk | SNOOP_DISPARITY even though the
     value travelled as a symbolic expression. *)
  let r = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let v = Device.read_reg (Gpushim.device r.gpushim) Regs.mmu_config in
  check Alcotest.int64 "resolved on client"
    (Int64.logor Sku.g71_mp8.Sku.quirk_mmu_config 0x10L)
    v

let drivershim_naive_one_rtt_per_access () =
  let r = mk_rig ~mode:Mode.Naive () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let accesses = Drivershim.accesses_total r.shim in
  let rtts = Metrics.get_int r.counters Metrics.Net_blocking_rtts in
  (* every register access is one blocking round trip (plus sync traffic) *)
  check Alcotest.bool "rtts >= accesses" true (rtts >= accesses)

let drivershim_md_fewer_rtts_than_naive () =
  let naive = mk_rig ~mode:Mode.Naive () in
  Kbase.init naive.drv;
  Drivershim.finalize naive.shim;
  let md = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init md.drv;
  Drivershim.finalize md.shim;
  check Alcotest.bool "deferral cuts RTTs" true
    (Metrics.get_int md.counters Metrics.Net_blocking_rtts
    < Metrics.get_int naive.counters Metrics.Net_blocking_rtts)

let drivershim_speculation_warms_up () =
  let history = Drivershim.fresh_history () in
  let run () =
    let r = mk_rig ~mode:Mode.Ours_mds ~history () in
    Kbase.init r.drv;
    Drivershim.finalize r.shim;
    (Drivershim.commits_speculated r.shim, Metrics.get_int r.counters Metrics.Net_blocking_rtts)
  in
  let spec1, rtts1 = run () in
  let _ = run () in
  let _ = run () in
  let spec4, rtts4 = run () in
  check Alcotest.bool "cold run speculates little" true (spec1 <= spec4);
  check Alcotest.bool "warm run speculates" true (spec4 > 0);
  check Alcotest.bool "warm run has fewer blocking RTTs" true (rtts4 < rtts1)

let drivershim_speculated_log_matches_sync_log () =
  (* Determinism: the interaction log of a fully-warmed speculative run must
     equal the log of a deferral-only run (same stimuli, same responses),
     modulo the nondeterministic registers. *)
  let history = Drivershim.fresh_history () in
  let run mode =
    let r = mk_rig ~mode ~history () in
    Kbase.init r.drv;
    Drivershim.finalize r.shim;
    List.filter_map
      (function
        | Recording.Reg_write { reg; value } -> Some (`W, reg, value)
        | Recording.Reg_read { reg; value; verify = true } -> Some (`R, reg, value)
        | _ -> None)
      (Drivershim.entries r.shim)
  in
  let md = run Mode.Ours_md in
  for _ = 1 to 3 do
    ignore (run Mode.Ours_mds)
  done;
  let mds = run Mode.Ours_mds in
  check Alcotest.bool "same verified interaction sequence" true (md = mds)

let drivershim_mispredict_detected () =
  let history = Drivershim.fresh_history () in
  for _ = 1 to 3 do
    let r = mk_rig ~mode:Mode.Ours_mds ~history () in
    Kbase.init r.drv;
    Drivershim.finalize r.shim
  done;
  let r = mk_rig ~mode:Mode.Ours_mds ~history () in
  Drivershim.inject_fault_after r.shim 2;
  match
    Kbase.init r.drv;
    Drivershim.finalize r.shim
  with
  | () -> Alcotest.fail "injected wrong value not detected"
  | exception Drivershim.Mispredict _ -> ()
  | exception Fun.Finally_raised (Drivershim.Mispredict _) -> ()

let drivershim_poll_offload_one_message () =
  let cfg = Mode.default_config Mode.Ours_mds in
  let r = mk_rig ~config:cfg ~mode:Mode.Ours_mds () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  check Alcotest.bool "polls offloaded" true (Metrics.get_int r.counters Metrics.Poll_offloaded > 0);
  check Alcotest.int "offloaded = instances"
    (Metrics.get_int r.counters Metrics.Poll_instances)
    (Metrics.get_int r.counters Metrics.Poll_offloaded)

let drivershim_entries_replayable_order () =
  (* The log must put the job-start Mem_load before the START write. *)
  let r = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let entries = Drivershim.entries r.shim in
  (* Init produces no Mem_load (no jobs), but must contain the soft reset
     command write before the reset poll. *)
  let rec find_order = function
    | Recording.Reg_write { reg; value } :: rest
      when reg = Regs.gpu_command && Int64.equal value Regs.cmd_soft_reset ->
      let rec has_poll = function
        | Recording.Poll { reg; _ } :: _ when reg = Regs.gpu_irq_rawstat -> true
        | _ :: rest -> has_poll rest
        | [] -> false
      in
      has_poll rest
    | _ :: rest -> find_order rest
    | [] -> false
  in
  check Alcotest.bool "reset write precedes its poll" true (find_order entries)

(* ---- Wire ---- *)

let wire_site_key_memo_checks_triple () =
  (* The memo hash folds fn and trigger with no separator, so these two
     sites share a hash; each must still get its own key. *)
  let k1 = Grt.Wire.site_key ~fn:"ab" ~trigger:"c" [] in
  let k2 = Grt.Wire.site_key ~fn:"a" ~trigger:"bc" [] in
  check Alcotest.bool "first key" true (String.starts_with ~prefix:"ab@c#" k1);
  check Alcotest.bool "second key" true (String.starts_with ~prefix:"a@bc#" k2);
  check Alcotest.string "first key again" k1 (Grt.Wire.site_key ~fn:"ab" ~trigger:"c" [])

let () =
  Alcotest.run "grt_core"
    [
      ( "recording",
        [
          Alcotest.test_case "roundtrip" `Quick recording_roundtrip;
          Alcotest.test_case "sign/verify" `Quick recording_sign_verify;
          Alcotest.test_case "tamper rejected" `Quick recording_tamper_rejected;
          Alcotest.test_case "counts and slots" `Quick recording_counts_and_slots;
          Alcotest.test_case "garbage rejected" `Quick recording_garbage_rejected;
          recording_qcheck_roundtrip;
          recording_qcheck_signature;
        ] );
      ( "memsync",
        [
          Alcotest.test_case "meta classification" `Quick memsync_meta_classification;
          Alcotest.test_case "pt pages are meta" `Quick memsync_pt_pages_are_meta;
          Alcotest.test_case "sync and baseline" `Quick memsync_sync_and_baseline;
          Alcotest.test_case "apply and note" `Quick memsync_apply_and_note;
          Alcotest.test_case "naive ships once" `Quick memsync_naive_ship_once;
        ] );
      ( "gpushim",
        [
          Alcotest.test_case "requires isolation" `Quick gpushim_requires_isolation;
          Alcotest.test_case "TZASC blocks normal world" `Quick gpushim_tzasc_blocks_normal_world;
          Alcotest.test_case "batch references" `Quick gpushim_batch_refs;
          Alcotest.test_case "poll and reset" `Quick gpushim_poll_and_reset;
        ] );
      ( "drivershim",
        [
          Alcotest.test_case "defers and batches" `Quick drivershim_defers_and_batches;
          Alcotest.test_case "symbolic quirk reaches client" `Quick
            drivershim_symbolic_quirk_reaches_client;
          Alcotest.test_case "naive: RTT per access" `Quick drivershim_naive_one_rtt_per_access;
          Alcotest.test_case "deferral cuts RTTs" `Quick drivershim_md_fewer_rtts_than_naive;
          Alcotest.test_case "speculation warms up" `Quick drivershim_speculation_warms_up;
          Alcotest.test_case "speculated log = sync log" `Quick
            drivershim_speculated_log_matches_sync_log;
          Alcotest.test_case "mispredict detected" `Quick drivershim_mispredict_detected;
          Alcotest.test_case "poll offload" `Quick drivershim_poll_offload_one_message;
          Alcotest.test_case "replayable entry order" `Quick drivershim_entries_replayable_order;
        ] );
      ("wire", [ Alcotest.test_case "site-key memo checks the triple" `Quick wire_site_key_memo_checks_triple ]);
    ]
