(* Lossy-link robustness, end to end: channel faults must change only
   time and energy, never the recorded interaction log; a Link_down
   mid-session must be recovered like a misprediction; and a transient
   fault inside an offloaded poll must not poison the speculation
   history for that site (the bug this PR fixes). *)

module Orchestrate = Grt.Orchestrate
module Drivershim = Grt.Drivershim
module Gpushim = Grt.Gpushim
module Mode = Grt.Mode
module Backend = Grt_driver.Backend
module Mem = Grt_gpu.Mem
module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Sexpr = Grt_util.Sexpr
module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics

let check = Alcotest.check

let record ?history ?config ?inject_outage_after ~profile ~mode () =
  Orchestrate.record ?history ?config ?inject_outage_after ~profile ~mode ~sku:Sku.g71_mp8
    ~net:Grt_mlfw.Zoo.mnist ~seed:42L ()

(* Mispredictions escape [finalize] wrapped in [Fun.Finally_raised]. *)
let rec is_mispredict = function
  | Drivershim.Mispredict _ -> true
  | Fun.Finally_raised e -> is_mispredict e
  | _ -> false

(* ---- recordings are bit-identical under loss (tentpole) ---- *)

let lossy_blob_bit_identical_all_modes () =
  let lossy = Profile.degrade ~drop_prob:0.05 Profile.wifi in
  List.iter
    (fun mode ->
      let clean = record ~history:(Drivershim.fresh_history ()) ~profile:Profile.wifi ~mode () in
      let faulty = record ~history:(Drivershim.fresh_history ()) ~profile:lossy ~mode () in
      let label s = Printf.sprintf "%s: %s" (Mode.name mode) s in
      check Alcotest.bool (label "faults were exercised") true
        (faulty.Orchestrate.retransmits > 0);
      check Alcotest.bool (label "blob bit-identical under loss") true
        (Bytes.equal clean.Orchestrate.blob faulty.Orchestrate.blob);
      check Alcotest.bool (label "loss costs time") true
        (faulty.Orchestrate.total_s > clean.Orchestrate.total_s))
    Mode.all

let outage_recovery_bit_identical () =
  let clean = record ~history:(Drivershim.fresh_history ()) ~profile:Profile.wifi
      ~mode:Mode.Ours_mds ()
  in
  let outage =
    record ~history:(Drivershim.fresh_history ()) ~inject_outage_after:40 ~profile:Profile.wifi
      ~mode:Mode.Ours_mds ()
  in
  check Alcotest.bool "link went down once" true (outage.Orchestrate.link_downs >= 1);
  check Alcotest.bool "recovery counted as rollback" true (outage.Orchestrate.rollbacks >= 1);
  check Alcotest.bool "recovery spent time" true (outage.Orchestrate.rollback_s > 0.);
  check Alcotest.bool "recording unaffected by the outage" true
    (Bytes.equal clean.Orchestrate.blob outage.Orchestrate.blob)

(* ---- offloaded-poll speculation history (the fixed bug) ---- *)

(* A minimal shim rig around the canonical §4.3 polling loop: power the
   shader cores on, then offload-poll SHADER_READY until the domain comes
   up. The device answers the poll deterministically with 0xFF, so the
   site becomes history-confident after [spec_history_k] runs. *)
type rig = { shim : Drivershim.t; counters : Metrics.t; link : Link.t }

let mk_rig ?link ?counters ~history () =
  let counters = match counters with Some c -> c | None -> Metrics.create () in
  let cfg = Mode.default_config Mode.Ours_mds in
  let clock, link =
    match link with
    | Some l -> (Link.clock l, l)
    | None ->
      let clock = Clock.create () in
      (clock, Link.create ~clock ~metrics:counters Profile.wifi)
  in
  let gpushim = Gpushim.create ~clock ~sku:Sku.g71_mp8 ~metrics:counters ~session_salt:4L ~cfg () in
  Gpushim.isolate gpushim;
  let cloud_mem = Mem.create () in
  let shim = Drivershim.create ~cfg ~link ~gpushim ~cloud_mem ~metrics:counters ~history () in
  { shim; counters; link }

let power_on_and_poll r =
  let b = Drivershim.backend r.shim in
  b.Backend.write_reg Regs.shader_pwron_lo (Sexpr.const 0xFFL);
  let res =
    b.Backend.poll_reg ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond:Backend.Bits_set
      ~max_iters:4000 ~spin_ns:1000L
  in
  Drivershim.finalize r.shim;
  res

let warm_poll_site history =
  (* spec_history_k identical observations make the site confident *)
  for _ = 1 to (Mode.default_config Mode.Ours_mds).Mode.spec_history_k do
    match power_on_and_poll (mk_rig ~history ()) with
    | Backend.Poll_ok _ -> ()
    | Backend.Poll_timeout -> Alcotest.fail "warm-up poll timed out"
  done

let expect_speculated_poll ~msg history =
  let r = mk_rig ~history () in
  (match power_on_and_poll r with
  | Backend.Poll_ok _ -> ()
  | Backend.Poll_timeout -> Alcotest.fail "poll timed out");
  check Alcotest.int (msg ^ ": no sync poll commit") 0
    (Metrics.get_int r.counters Metrics.Commits_sync);
  check Alcotest.bool (msg ^ ": poll was speculated") true
    (Metrics.get_int r.counters Metrics.Commits_speculated >= 1)

let poll_fault_keeps_history_confident () =
  let history = Drivershim.fresh_history () in
  warm_poll_site history;
  expect_speculated_poll ~msg:"before the fault" history;
  (* Inject the fault into the offloaded poll's validation check: the
     countdown holds through the preceding write-only commit (no reads)
     and lands on the poll observation. *)
  let faulted = mk_rig ~history () in
  Drivershim.inject_fault_after faulted.shim 0;
  (match power_on_and_poll faulted with
  | exception e when is_mispredict e -> ()
  | _ -> Alcotest.fail "injected poll fault was not detected");
  check Alcotest.bool "fault hit a speculated poll" true
    (Metrics.get_int faulted.counters Metrics.Spec_mispredicts >= 1);
  check Alcotest.int "the faulted poll was speculated, not sync" 0
    (Metrics.get_int faulted.counters Metrics.Commits_sync);
  (* Regression: the history recorded the true observation, not the
     corrupted check value, so the very next run still speculates. With
     the old code the injected value entered the history, the site lost
     confidence, and this fell back to a blocking sync commit. *)
  expect_speculated_poll ~msg:"after the transient fault" history

let poll_timeout_sentinel_not_recorded () =
  let history = Drivershim.fresh_history () in
  warm_poll_site history;
  (* A run whose poll can never succeed: skip the power-on write, so the
     ready register stays 0 and the offloaded poll times out. The
     speculative path returns the (wrong) prediction and the mismatch
     surfaces at finalize. *)
  let r = mk_rig ~history () in
  let b = Drivershim.backend r.shim in
  (match
     b.Backend.poll_reg ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond:Backend.Bits_set
       ~max_iters:50 ~spin_ns:1000L
   with
  | Backend.Poll_ok _ | Backend.Poll_timeout -> ());
  (match Drivershim.finalize r.shim with
  | () -> Alcotest.fail "timed-out speculated poll was not flagged"
  | exception e when is_mispredict e -> ());
  (* Regression: the -1L timeout sentinel must not enter the history as an
     observation; the site is forgotten instead. The next run therefore
     falls back to a synchronous poll — it must NOT re-speculate the same
     doomed prediction (that livelocks recovery) — and k clean runs
     re-warm the site as from scratch. *)
  let next = mk_rig ~history () in
  (match power_on_and_poll next with
  | Backend.Poll_ok _ -> ()
  | Backend.Poll_timeout -> Alcotest.fail "recovery poll timed out");
  check Alcotest.int "after timeout: poll goes synchronous" 1
    (Metrics.get_int next.counters Metrics.Commits_sync);
  warm_poll_site history;
  expect_speculated_poll ~msg:"re-warmed after the timeout" history

(* ---- degraded mode suppresses speculation ---- *)

let trip_degraded link =
  (* Fill the link's loss window with lossy exchanges until it trips. *)
  let lossy = Profile.degrade ~drop_prob:0.4 Profile.wifi in
  Link.set_profile link lossy;
  (try
     for _ = 1 to 64 do
       Link.round_trip link ~send_bytes:64 ~recv_bytes:64
     done
   with Link.Link_down _ -> ());
  check Alcotest.bool "link tripped into degraded" true (Link.health link = Link.Degraded);
  (* Faults served their purpose; keep the window history but stop
     dropping so the shim's own traffic is clean. *)
  Link.set_profile link Profile.wifi

let degraded_link_suppresses_speculation () =
  let clock = Clock.create () in
  let link_counters = Metrics.create () in
  let link = Link.create ~clock ~metrics:link_counters ~seed:7L Profile.wifi in
  trip_degraded link;
  (* Default config: degraded_mode = true, so commits go synchronous. *)
  let counters = Metrics.create () in
  let r = mk_rig ~link ~counters ~history:(Drivershim.fresh_history ()) () in
  let b = Drivershim.backend r.shim in
  b.Backend.write_reg Regs.shader_pwron_lo (Sexpr.const 0xFFL);
  Drivershim.finalize r.shim;
  check Alcotest.bool "speculation suppressed while degraded" true
    (Metrics.get_int counters Metrics.Spec_degraded_suppressed >= 1);
  check Alcotest.int "no speculative commits while degraded" 0
    (Metrics.get_int counters Metrics.Commits_speculated);
  check Alcotest.bool "commits went synchronous" true
    (Metrics.get_int counters Metrics.Commits_sync >= 1);
  (* Opting out (degraded_mode = false) keeps speculating on the same
     degraded link. *)
  check Alcotest.bool "link still degraded" true (Link.health link = Link.Degraded);
  let counters2 = Metrics.create () in
  let cfg = { (Mode.default_config Mode.Ours_mds) with Mode.degraded_mode = false } in
  let gpushim =
    Gpushim.create ~clock:(Link.clock link) ~sku:Sku.g71_mp8 ~metrics:counters2
      ~session_salt:4L ~cfg ()
  in
  Gpushim.isolate gpushim;
  let shim =
    Drivershim.create ~cfg ~link ~gpushim ~cloud_mem:(Mem.create ()) ~metrics:counters2
      ~history:(Drivershim.fresh_history ()) ()
  in
  let b2 = Drivershim.backend shim in
  b2.Backend.write_reg Regs.shader_pwron_lo (Sexpr.const 0xFFL);
  Drivershim.finalize shim;
  check Alcotest.int "policy off: nothing suppressed" 0
    (Metrics.get_int counters2 Metrics.Spec_degraded_suppressed);
  check Alcotest.bool "policy off: write-only commit still speculated" true
    (Metrics.get_int counters2 Metrics.Commits_speculated >= 1)

let () =
  Alcotest.run "faultlink"
    [
      ( "history",
        [
          Alcotest.test_case "poll fault keeps history confident" `Quick
            poll_fault_keeps_history_confident;
          Alcotest.test_case "poll timeout sentinel not recorded" `Quick
            poll_timeout_sentinel_not_recorded;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "degraded link suppresses speculation" `Quick
            degraded_link_suppresses_speculation;
        ] );
      ( "differential",
        [
          Alcotest.test_case "lossy blob bit-identical (all modes)" `Slow
            lossy_blob_bit_identical_all_modes;
          Alcotest.test_case "outage recovery bit-identical" `Slow
            outage_recovery_bit_identical;
        ] );
    ]
