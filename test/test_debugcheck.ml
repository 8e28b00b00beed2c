(* Remote debugging via log comparison (§3.2): record the same workload on
   a healthy client and on one with a silicon/firmware erratum; the diff
   must localize the divergence to the faulty register. *)

module Orchestrate = Grt.Orchestrate
module Debugcheck = Grt.Debugcheck
module Recording = Grt.Recording
module Mode = Grt.Mode
module Zoo = Grt_mlfw.Zoo
module Profile = Grt_net.Profile
module Sku = Grt_gpu.Sku
module Regs = Grt_gpu.Regs

let check = Alcotest.check

let record_on sku =
  Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_md ~sku ~net:Zoo.mnist ~seed:77L ()

let reference = lazy (record_on Sku.g71_mp8).Orchestrate.recording

(* A "buggy" client: same GPU identity, but the shader-config register
   resets to a different value — a silicon-revision erratum the cloud's
   driver does not know about. *)
let erratic_sku = { Sku.g71_mp8 with Sku.quirk_shader_config = 0x0000_0042L }

let same_device_is_healthy () =
  let a = Lazy.force reference in
  let b = (record_on Sku.g71_mp8).Orchestrate.recording in
  let r = Debugcheck.compare_logs ~reference:a ~subject:b in
  check Alcotest.bool "healthy" true (Debugcheck.healthy r);
  check Alcotest.int "all compared match" r.Debugcheck.compared r.Debugcheck.matching

let erratum_is_detected_and_localized () =
  let a = Lazy.force reference in
  let b = (record_on erratic_sku).Orchestrate.recording in
  let r = Debugcheck.compare_logs ~reference:a ~subject:b in
  check Alcotest.bool "not healthy" false (Debugcheck.healthy r);
  (match r.Debugcheck.first_divergence with
  | Some (Debugcheck.Value_differs { reg; reference; subject; _ }) ->
    check Alcotest.int "localized to SHADER_CONFIG" Regs.shader_config reg;
    check Alcotest.int64 "reference value" Sku.g71_mp8.Sku.quirk_shader_config reference;
    check Alcotest.int64 "erratic value" 0x42L subject
  | other ->
    Alcotest.failf "unexpected divergence: %s"
      (match other with
      | Some d -> Format.asprintf "%a" Debugcheck.pp_divergence d
      | None -> "none"));
  (* The offending register tops the histogram. *)
  match r.Debugcheck.divergent_regs with
  | (reg, _) :: _ -> check Alcotest.int "histogram top" Regs.shader_config reg
  | [] -> Alcotest.fail "no histogram"

let nondeterministic_registers_ignored () =
  (* Two record runs of the same device differ in LATEST_FLUSH_ID values
     (different session salts) — the comparison must not flag them. *)
  let a = Lazy.force reference in
  let b =
    (Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_md ~sku:Sku.g71_mp8 ~net:Zoo.mnist
       ~seed:78L ())
      .Orchestrate.recording
  in
  let r = Debugcheck.compare_logs ~reference:a ~subject:b in
  check Alcotest.bool "flush-id noise ignored" true (Debugcheck.healthy r)

let truncation_detected () =
  let a = Lazy.force reference in
  let b =
    { a with Recording.entries = Array.sub a.Recording.entries 0 (Array.length a.Recording.entries - 5) }
  in
  match (Debugcheck.compare_logs ~reference:a ~subject:b).Debugcheck.first_divergence with
  | Some (Debugcheck.Subject_truncated _) -> ()
  | _ -> Alcotest.fail "truncation not reported"

let extra_entries_detected () =
  let a = Lazy.force reference in
  let b = { a with Recording.entries = Array.append a.Recording.entries a.Recording.entries } in
  match (Debugcheck.compare_logs ~reference:a ~subject:b).Debugcheck.first_divergence with
  | Some (Debugcheck.Subject_longer { extra }) ->
    check Alcotest.int "counts extras" (Array.length a.Recording.entries) extra
  | _ -> Alcotest.fail "extra entries not reported"

let structure_divergence_detected () =
  let a = Lazy.force reference in
  let entries = Array.copy a.Recording.entries in
  (* Replace a mid-log entry with a different interaction kind. *)
  let idx = Array.length entries / 2 in
  entries.(idx) <- Recording.Wait_irq { line = Grt_gpu.Device.Mmu_irq };
  let b = { a with Recording.entries } in
  match (Debugcheck.compare_logs ~reference:a ~subject:b).Debugcheck.first_divergence with
  | Some (Debugcheck.Structure_differs { index; _ }) ->
    check Alcotest.bool "at or before the patch" true (index <= idx)
  | other ->
    Alcotest.failf "expected structural divergence, got %s"
      (match other with
      | Some d -> Format.asprintf "%a" Debugcheck.pp_divergence d
      | None -> "none")

let report_renders () =
  let a = Lazy.force reference in
  let b = (record_on erratic_sku).Orchestrate.recording in
  let r = Debugcheck.compare_logs ~reference:a ~subject:b in
  let text = Format.asprintf "%a" Debugcheck.pp_report r in
  check Alcotest.bool "mentions divergence" true (String.length text > 20)

let () =
  Alcotest.run "grt_debugcheck"
    [
      ( "compare",
        [
          Alcotest.test_case "same device healthy" `Quick same_device_is_healthy;
          Alcotest.test_case "erratum localized" `Quick erratum_is_detected_and_localized;
          Alcotest.test_case "nondet ignored" `Quick nondeterministic_registers_ignored;
          Alcotest.test_case "truncation" `Quick truncation_detected;
          Alcotest.test_case "extra entries" `Quick extra_entries_detected;
          Alcotest.test_case "structural divergence" `Quick structure_divergence_detected;
          Alcotest.test_case "report renders" `Quick report_renders;
        ] );
    ]
