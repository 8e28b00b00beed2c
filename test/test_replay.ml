(* End-to-end record → replay tests: correctness of replayed computation,
   input independence, SKU specificity, security rejections, misprediction
   recovery and the full orchestration pipeline. *)

module Orchestrate = Grt.Orchestrate
module Replayer = Grt.Replayer
module Recording = Grt.Recording
module Gpushim = Grt.Gpushim
module Mode = Grt.Mode
module Network = Grt_mlfw.Network
module Zoo = Grt_mlfw.Zoo
module Runner = Grt_mlfw.Runner
module Profile = Grt_net.Profile
module Sku = Grt_gpu.Sku

let check = Alcotest.check

let sku = Sku.g71_mp8

let record ?history ?(mode = Mode.Ours_mds) ?(net = Zoo.mnist) ?(seed = 42L) () =
  Orchestrate.record ?history ~profile:Profile.wifi ~mode ~sku ~net ~seed ()

let mnist_recording = lazy (record ())

let plan = lazy (Network.expand Zoo.mnist)

let native_output input =
  let clock = Grt_sim.Clock.create () in
  (Grt.Native.run_inference ~clock ~sku ~net:Zoo.mnist ~seed:42L ~input ()).Grt.Native.output

let replay ?(blob = (Lazy.force mnist_recording).Orchestrate.blob) ?(seed = 42L) input =
  let params = Runner.weight_values (Lazy.force plan) ~seed:42L in
  Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed ()

let replay_matches_native () =
  let input = Runner.input_values (Lazy.force plan) ~seed:42L in
  let ro = replay input in
  check Alcotest.bool "bit-identical output" true
    (ro.Orchestrate.r.Replayer.output = native_output input)

let replay_input_independence () =
  (* §2.3: one recording, arbitrarily many fresh inputs. *)
  let p = Lazy.force plan in
  List.iter
    (fun seed ->
      let input = Runner.input_values p ~seed in
      let ro = replay input in
      check Alcotest.bool
        (Printf.sprintf "fresh input (seed %Ld) replays correctly" seed)
        true
        (ro.Orchestrate.r.Replayer.output = native_output input))
    [ 1L; 2L; 3L ]

let replay_without_params_differs () =
  (* Parameters are injected by the TEE app; skipping them must change the
     result (the recording itself contains no model weights). *)
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let o = Lazy.force mnist_recording in
  let ro = Orchestrate.replay_recording ~sku ~blob:o.Orchestrate.blob ~input ~params:[] ~seed:1L () in
  check Alcotest.bool "weights matter" false
    (ro.Orchestrate.r.Replayer.output = native_output input)

let recording_contains_no_weights () =
  (* Confidentiality (§7.1): the signed recording must not embed the
     parameter values anywhere. Weights stay zero during the dry run, so
     simply assert no Mem_load page overlaps a parameter slot. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let param_pfns =
    List.concat_map
      (fun s ->
        let first = Int64.shift_right_logical s.Recording.pa 12 in
        let pages = (s.Recording.actual_bytes + 4095) / 4096 in
        List.init pages (fun i -> Int64.add first (Int64.of_int i)))
      (Recording.param_slots rec_t)
  in
  Array.iter
    (function
      | Recording.Mem_load { Grt.Memsync.records; _ } ->
        List.iter
          (fun (pfn, _, _) ->
            if List.mem pfn param_pfns then Alcotest.fail "weight page leaked into recording")
          records
      | _ -> ())
    rec_t.Recording.entries

let replay_faster_than_native () =
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let ro = replay input in
  let clock = Grt_sim.Clock.create () in
  let nat = Grt.Native.run_inference ~clock ~sku ~net:Zoo.mnist ~seed:42L ~input () in
  check Alcotest.bool "replay beats native for small NNs" true
    (ro.Orchestrate.r.Replayer.delay_s < nat.Grt.Native.delay_s)

let replay_rejects_wrong_sku () =
  (* §2.4: subtle SKU differences break replay — here it is rejected up
     front by the identity check. *)
  let o = Lazy.force mnist_recording in
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let params = Runner.weight_values p ~seed:42L in
  match
    Orchestrate.replay_recording ~sku:Sku.g76_mp12 ~blob:o.Orchestrate.blob ~input ~params
      ~seed:1L ()
  with
  | _ -> Alcotest.fail "foreign SKU accepted"
  | exception Replayer.Rejected msg ->
    check Alcotest.bool "mentions SKU" true
      (String.length msg > 0 && String.contains msg 'S')

let replay_rejects_tampered_blob () =
  let o = Lazy.force mnist_recording in
  let blob = Bytes.copy o.Orchestrate.blob in
  Bytes.set blob (Bytes.length blob / 2) '\xFF';
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  match Orchestrate.replay_recording ~sku ~blob ~input ~params:[] ~seed:1L () with
  | _ -> Alcotest.fail "tampered blob accepted"
  | exception Replayer.Rejected _ -> ()

let replay_rejects_unknown_param_slot () =
  let o = Lazy.force mnist_recording in
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  match
    Orchestrate.replay_recording ~sku ~blob:o.Orchestrate.blob ~input
      ~params:[ ("w.99", [| 1.0 |]) ] ~seed:1L ()
  with
  | _ -> Alcotest.fail "unknown slot accepted"
  | exception Replayer.Rejected _ -> ()

let replay_detects_divergence () =
  (* Corrupt a verified register READ value inside a resigned recording:
     the replayer must notice the GPU disagreeing. (An adversary with the
     signing key still cannot make the GPU lie.) *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_read { reg; value; verify = true } when not !patched ->
        entries.(i) <- Recording.Reg_read { reg; value = Int64.logxor value 0x5L; verify = true };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a verified read to corrupt" true !patched;
  let blob =
    Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries }
  in
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let params = Runner.weight_values p ~seed:42L in
  match Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:1L () with
  | _ -> Alcotest.fail "divergence not detected"
  | exception Replayer.Divergence _ -> ()

let replay_all_modes_equivalent () =
  (* Recordings from every recorder configuration replay to the same
     output: the optimizations must not change semantics. *)
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let expected = native_output input in
  List.iter
    (fun mode ->
      let o = record ~mode () in
      let ro = replay ~blob:o.Orchestrate.blob input in
      check Alcotest.bool
        (Printf.sprintf "%s recording replays correctly" (Mode.name mode))
        true
        (ro.Orchestrate.r.Replayer.output = expected))
    Mode.all

let replay_gpu_isolated_during_session () =
  let o = Lazy.force mnist_recording in
  let clock = Grt_sim.Clock.create () in
  let g =
    Gpushim.create ~clock ~sku ~session_salt:77L ~cfg:(Mode.default_config Mode.Ours_mds) ()
  in
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let params = Runner.weight_values p ~seed:42L in
  let r =
    Replayer.replay_segments ~gpushim:g ~signing_key:Orchestrate.cloud_signing_key
      ~blobs:[ o.Orchestrate.blob ] ~input ~params ()
  in
  check Alcotest.bool "released after replay" false (Gpushim.isolated g);
  check Alcotest.bool "entries applied" true (r.Replayer.entries_applied > 100);
  check Alcotest.bool "nondet reads skipped" true (r.Replayer.reads_skipped_nondet > 0)

let record_with_injected_fault_recovers () =
  (* §7.3: warm the history, poison one response, expect exactly one
     rollback and a recording that still replays correctly. *)
  let history = Grt.Drivershim.fresh_history () in
  ignore (record ~history ());
  let o =
    Orchestrate.record ~history ~inject_fault_after:120 ~profile:Profile.wifi
      ~mode:Mode.Ours_mds ~sku ~net:Zoo.mnist ~seed:43L ()
  in
  check Alcotest.int "one rollback" 1 o.Orchestrate.rollbacks;
  check Alcotest.bool "recovery took time" true (o.Orchestrate.rollback_s > 0.1);
  let p = Lazy.force plan in
  let input = Runner.input_values p ~seed:42L in
  let ro = replay ~blob:o.Orchestrate.blob input in
  check Alcotest.bool "post-recovery recording is correct" true
    (ro.Orchestrate.r.Replayer.output = native_output input)

let sku_matrix_records_everywhere () =
  (* Late binding: the same hardware-neutral workload records on any SKU,
     and each recording replays only on its own SKU. *)
  List.iter
    (fun client_sku ->
      let o =
        Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku:client_sku
          ~net:Zoo.mnist ~seed:42L ()
      in
      check Alcotest.int64
        (client_sku.Sku.name ^ " recording bound to its SKU")
        client_sku.Sku.gpu_id o.Orchestrate.recording.Recording.gpu_id;
      let p = Lazy.force plan in
      let input = Runner.input_values p ~seed:42L in
      let params = Runner.weight_values p ~seed:42L in
      let ro =
        Orchestrate.replay_recording ~sku:client_sku ~blob:o.Orchestrate.blob ~input ~params
          ~seed:1L ()
      in
      check Alcotest.bool
        (client_sku.Sku.name ^ " replays on itself")
        true
        (Array.length ro.Orchestrate.r.Replayer.output > 0))
    [ Sku.g52_mp4; Sku.g31_mp2 ]

let () =
  Alcotest.run "grt_replay"
    [
      ( "correctness",
        [
          Alcotest.test_case "replay matches native" `Quick replay_matches_native;
          Alcotest.test_case "input independence" `Quick replay_input_independence;
          Alcotest.test_case "weights matter" `Quick replay_without_params_differs;
          Alcotest.test_case "all modes equivalent" `Slow replay_all_modes_equivalent;
          Alcotest.test_case "replay faster than native" `Quick replay_faster_than_native;
        ] );
      ( "security",
        [
          Alcotest.test_case "no weights in recording" `Quick recording_contains_no_weights;
          Alcotest.test_case "rejects wrong SKU" `Quick replay_rejects_wrong_sku;
          Alcotest.test_case "rejects tampered blob" `Quick replay_rejects_tampered_blob;
          Alcotest.test_case "rejects unknown param slot" `Quick replay_rejects_unknown_param_slot;
          Alcotest.test_case "detects GPU divergence" `Quick replay_detects_divergence;
          Alcotest.test_case "GPU isolated during session" `Quick replay_gpu_isolated_during_session;
        ] );
      ( "recovery",
        [ Alcotest.test_case "injected fault recovers" `Quick record_with_injected_fault_recovers ]
      );
      ("sku", [ Alcotest.test_case "records on every SKU" `Slow sku_matrix_records_everywhere ]);
    ]
