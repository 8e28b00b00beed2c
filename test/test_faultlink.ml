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
        (Metrics.get_int faulty.Orchestrate.counters Metrics.Net_retransmits > 0);
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
  check Alcotest.bool "link went down once" true
    (Metrics.get_int outage.Orchestrate.counters Metrics.Recovery_link_downs >= 1);
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
    b.Backend.poll_reg ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond:Regs.Bits_set
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
     b.Backend.poll_reg ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond:Regs.Bits_set
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
  (* A degraded link always suspends speculation: commits go synchronous. *)
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
    (Metrics.get_int counters Metrics.Commits_sync >= 1)

(* ---- one tally per session ----

   A session's counts live in its one counter store and cover every
   attempt. After a rollback (a forced mispredict) or a link-down recovery
   (a forced outage), the Fig. 8 categories must still add up to the
   speculated commits, every commit must still have its batch-size sample,
   and the register accesses can only grow over the clean run's, since the
   replayed prefix is counted again. *)

let tally_cases =
  List.concat_map
    (fun net ->
      List.concat_map
        (fun window -> [ (net, window, `Mispredict 100); (net, window, `Outage 300) ])
        [ 1; 4 ])
    [ Grt_mlfw.Zoo.mnist; Grt_mlfw.Zoo.alexnet ]

let session_tally_covers_every_attempt () =
  let run ?inject_fault_after ?inject_outage_after ~window net =
    Orchestrate.record ~history:(Drivershim.fresh_history ()) ?inject_fault_after
      ?inject_outage_after ~window ~observe:true ~profile:Profile.wifi ~mode:Mode.Ours_mds
      ~sku:Sku.g71_mp8 ~net ~seed:42L ()
  in
  let accesses o =
    Metrics.get_int o.Orchestrate.counters Metrics.Reg_reads
    + Metrics.get_int o.Orchestrate.counters Metrics.Reg_writes
  in
  List.iter
    (fun (net, window, fault) ->
      let clean = run ~window net in
      let o, what =
        match fault with
        | `Mispredict k -> (run ~inject_fault_after:k ~window net, "mispredict")
        | `Outage k -> (run ~inject_outage_after:k ~window net, "outage")
      in
      let label s = Printf.sprintf "%s w%d %s: %s" net.Grt_mlfw.Network.name window what s in
      let get = Metrics.get_int o.Orchestrate.counters in
      check Alcotest.bool (label "fault forced a rollback") true (o.Orchestrate.rollbacks >= 1);
      check Alcotest.int (label "categories sum to speculated commits")
        (get Metrics.Commits_speculated)
        (List.fold_left
           (fun acc c -> acc + get (Drivershim.category_key c))
           0 Drivershim.all_categories);
      let commit_sizes =
        match Metrics.hists o.Orchestrate.counters with
        | Some hs -> Grt_sim.Hist.count (Grt_sim.Hist.get hs Grt_sim.Hist.Commit_accesses)
        | None -> Alcotest.fail (label "observed run lost its histograms")
      in
      check Alcotest.int (label "one batch-size sample per commit") (get Metrics.Commits_total)
        commit_sizes;
      check Alcotest.bool (label "accesses at least the clean run's") true
        (accesses o >= accesses clean))
    tally_cases

(* An offloaded poll is a 2-access commit: the accesses counter must
   count it exactly as the commit-size histogram and the link (which is
   charged [request_bytes 2]) do, so the two accesses-per-commit figures
   of one session agree. *)
let accesses_counter_matches_histogram () =
  List.iter
    (fun net ->
      let o =
        Orchestrate.record ~history:(Drivershim.fresh_history ()) ~observe:true
          ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku:Sku.g71_mp8 ~net ~seed:42L ()
      in
      let label s = Printf.sprintf "%s: %s" net.Grt_mlfw.Network.name s in
      let get = Metrics.get_int o.Orchestrate.counters in
      check Alcotest.bool (label "polls were offloaded") true (get Metrics.Poll_offloaded > 0);
      match Metrics.hists o.Orchestrate.counters with
      | None -> Alcotest.fail (label "observed run lost its histograms")
      | Some hs ->
        let h = Grt_sim.Hist.get hs Grt_sim.Hist.Commit_accesses in
        check Alcotest.int (label "accesses counter = histogram sum")
          (Int64.to_int (Grt_sim.Hist.sum h))
          (get Metrics.Commits_accesses);
        check Alcotest.int (label "one sample per commit") (get Metrics.Commits_total)
          (Grt_sim.Hist.count h))
    [ Grt_mlfw.Zoo.mnist; Grt_mlfw.Zoo.mobilenet ]

(* ---- deep speculation queues roll back exactly ----

   On a stop-and-wait link nothing bounds the outstanding-speculation
   queue: MobileNet's runs hundreds of commits deep. Commits must be
   validated in the order they were dispatched; a fault injected at any
   depth must surface as a misprediction whose validated prefix ends
   exactly where the wrong commit's entries begin, and the orchestrator
   must recover to the clean recording. *)

type mark = Before | After of int (* faults injected so far *)

(* The first recording attempt of MobileNet, as the orchestrator runs it,
   with every driver call bracketed by a log-position mark. Returns the
   outcome, the shim, the marks (oldest first, with the log length at
   each) and, when [observe], the tracer and event trace. *)
let first_attempt ?inject ?(observe = false) ~window () =
  let clock = Clock.create () and metrics = Metrics.create () in
  let tracer = if observe then Some (Grt_sim.Tracer.create clock) else None in
  let trace = if observe then Some (Grt_sim.Trace.create ~capacity:100_000 clock) else None in
  let link = Link.create ~clock ~metrics ~window Profile.wifi in
  let cfg = Mode.default_config Mode.Ours_mds in
  let gpushim = Gpushim.create ~clock ~sku:Sku.g71_mp8 ~metrics ~session_salt:4L ~cfg () in
  Gpushim.isolate gpushim;
  let cloud_mem = Mem.create () in
  let shim =
    Drivershim.create ~cfg ~link ~gpushim ~cloud_mem ~metrics ?tracer ?trace
      ~history:(Drivershim.fresh_history ()) ()
  in
  Option.iter (Drivershim.inject_fault_after shim) inject;
  let marks = ref [] in
  let note m =
    Drivershim.mark_segment shim;
    marks := m :: !marks
  in
  let around f =
    note Before;
    Fun.protect ~finally:(fun () -> note (After (Metrics.get_int metrics Metrics.Fault_injected))) f
  in
  let b = Drivershim.backend shim in
  let wrapped =
    {
      Backend.read_reg = (fun r -> around (fun () -> b.Backend.read_reg r));
      write_reg = (fun r v -> around (fun () -> b.Backend.write_reg r v));
      force = (fun e -> around (fun () -> b.Backend.force e));
      poll_reg =
        (fun ~reg ~mask ~cond ~max_iters ~spin_ns ->
          around (fun () -> b.Backend.poll_reg ~reg ~mask ~cond ~max_iters ~spin_ns));
      delay_us = (fun us -> around (fun () -> b.Backend.delay_us us));
      lock = (fun l -> around (fun () -> b.Backend.lock l));
      unlock = (fun l -> around (fun () -> b.Backend.unlock l));
      externalize = (fun s -> around (fun () -> b.Backend.externalize s));
      now_us = b.Backend.now_us;
      wait_irq = (fun ~timeout_us -> around (fun () -> b.Backend.wait_irq ~timeout_us));
      irq_scope = (fun f -> around (fun () -> b.Backend.irq_scope f));
      enter_hot = (fun fn -> around (fun () -> b.Backend.enter_hot fn));
      exit_hot = (fun fn -> around (fun () -> b.Backend.exit_hot fn));
    }
  in
  let on_region (r : Grt_runtime.Session.region) =
    let mr =
      {
        Grt.Memsync.name = r.name;
        meta = Grt_runtime.Session.usage_is_metastate r.usage;
        va = r.va;
        pa = r.pa;
        model_bytes = r.model_bytes;
        actual_bytes = r.actual_bytes;
      }
    in
    Grt.Memsync.register_region (Drivershim.downlink shim) mr;
    Grt.Memsync.register_region (Gpushim.uplink gpushim) mr
  in
  let outcome =
    match
      let drv =
        Grt_driver.Kbase.create ~backend:wrapped ~mem:cloud_mem
          ~coherency_ace:Sku.g71_mp8.Sku.needs_snoop_disparity
      in
      Grt_driver.Kbase.init drv;
      let session = Grt_runtime.Session.create ~drv ~as_idx:1 ~clock ~on_region () in
      let runner =
        Grt_mlfw.Runner.setup ~session
          ~plan:(Grt_mlfw.Network.expand Grt_mlfw.Zoo.mobilenet)
          ~seed:42L ~load_weights:false
      in
      Grt_mlfw.Runner.run runner;
      Grt_driver.Kbase.shutdown drv;
      Drivershim.finalize shim
    with
    | () -> Ok ()
    | exception e -> Error e
  in
  let lens = Drivershim.segment_marks shim in
  (outcome, shim, List.combine (List.rev !marks) lens, tracer, trace)

let rec mispredict_of = function
  | Drivershim.Mispredict { site; valid_log; _ } -> Some (site, valid_log)
  | Fun.Finally_raised e -> mispredict_of e
  | _ -> None

(* The sites of speculated commits in dispatch order, and of validations
   in the order they ran. *)
let dispatched trace =
  List.filter_map
    (fun (e : Grt_sim.Trace.event) ->
      match e.Grt_sim.Trace.payload with
      | Grt_sim.Trace.Speculate { site; _ } -> Some site
      | _ -> None)
    (Grt_sim.Trace.all trace)

let validated tracer =
  List.filter_map
    (fun (sp : Grt_sim.Tracer.span) ->
      if sp.Grt_sim.Tracer.sp_name = "validate" then List.assoc_opt "site" sp.Grt_sim.Tracer.sp_args
      else None)
    (Grt_sim.Tracer.spans tracer)

(* Where the injected commit's entries begin. A driver call commits at most
   one batch with reads before an offloaded poll, and a batch's entries are
   logged only when it commits, so a commit fault lands at the log position
   just before the call that injected it (or, for an IRQ handler's exit
   commit, just after the handler's last call); a poll fault at the poll's
   own entry, the call's last. *)
let injected_mark ~is_poll marks =
  let rec go prev = function
    | (After 1, len) :: _ -> if is_poll then len - 1 else prev
    | (_, len) :: rest -> go len rest
    | [] -> Alcotest.fail "no fault was injected"
  in
  go 0 marks

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let deep_queue_rollback_is_exact () =
  let record ?inject_fault_after ~window () =
    Orchestrate.record ~history:(Drivershim.fresh_history ()) ?inject_fault_after ~window
      ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku:Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mobilenet
      ~seed:42L ()
  in
  let clean_blob = (record ~window:1 ()).Orchestrate.blob in
  let clean_log =
    match first_attempt ~observe:true ~window:1 () with
    | Ok (), shim, _, Some tracer, Some trace ->
      let sent = dispatched trace in
      check Alcotest.bool "hundreds of commits speculated" true (List.length sent > 1000);
      check (Alcotest.list Alcotest.string) "validated oldest first" sent (validated tracer);
      Drivershim.entries shim
    | Ok (), _, _, _, _ -> Alcotest.fail "clean run lost its observers"
    | Error e, _, _, _, _ -> Alcotest.failf "clean run raised %s" (Printexc.to_string e)
  in
  List.iter
    (fun (window, depth) ->
      let label s = Printf.sprintf "w%d fault after %d: %s" window depth s in
      (match first_attempt ~inject:depth ~window () with
      | Ok (), _, _, _, _ -> Alcotest.fail (label "the injected fault went undetected")
      | Error e, _, marks, _, _ -> (
        match mispredict_of e with
        | None -> Alcotest.failf "%s" (label ("raised " ^ Printexc.to_string e))
        | Some (site, valid_log) ->
          let is_poll = String.starts_with ~prefix:"poll:" site in
          let mark = injected_mark ~is_poll marks in
          check Alcotest.int (label "valid_log ends at the wrong commit's mark") mark
            (List.length valid_log);
          check Alcotest.bool (label "valid_log is the clean log's prefix") true
            (valid_log = take mark clean_log)));
      let o = record ~inject_fault_after:depth ~window () in
      check Alcotest.bool (label "rolled back") true (o.Orchestrate.rollbacks >= 1);
      check Alcotest.bool (label "recovered to the clean blob") true
        (Bytes.equal clean_blob o.Orchestrate.blob))
    (List.concat_map (fun w -> List.map (fun d -> (w, d)) [ 3; 581; 909; 1032; 2000 ]) [ 1; 4 ])

(* The post-mortem text of a recording with an injected misprediction
   over a lossy link: speculate and commit events (written flat), a
   rollback, the replay going live and link window stalls (boxed). The
   pins were taken from the ring that stored every event boxed. *)
let failure_dump_text_unchanged () =
  let dump ?trace_capacity ~window () =
    let options =
      {
        Grt.Session_ctx.default_options with
        Grt.Session_ctx.inject_fault_after = Some 5;
        window;
        trace_capacity;
        history = Some (Drivershim.fresh_history ());
      }
    in
    let ctx =
      Grt.Session_ctx.create ~options ~cfg:(Mode.default_config Mode.Ours_mds)
        ~profile:Profile.cellular ~sku:Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed:11L
        ~granularity:`Monolithic ()
    in
    ignore (Orchestrate.Pipeline.run (Orchestrate.Pipeline.create ctx));
    Orchestrate.failure_dump ctx
  in
  let full = dump ~window:4 () in
  check Alcotest.int "full dump length" 56724 (String.length full);
  check Alcotest.string "full dump digest" "083ff2b3b528ecaef312bbe8ec91127d"
    (Digest.to_hex (Digest.string full));
  check Alcotest.string "small ring dump"
    (String.concat ""
       [
         "--- recording failed; 12 recorder event(s) (652 older evicted; raise --trace-capacity) ---\n";
         "[shim]\n";
         "  [7343.845 ms] shim         speculate site=kbase_job_irq_handler@control#9053c2d76faae3e2 checks=1\n";
         "  [7393.992 ms] shim         speculate site=kbase_job_irq_handler@control#3a1ca49387de5603 checks=1\n";
         "  [7444.141 ms] shim         speculate site=<cold>@hot_exit#9184966a0f36a84 checks=3\n";
         "  [7444.142 ms] shim         speculate site=kbase_gpu_cache_clean@poll#a2b904225b25c1ab checks=0\n";
         "  [7444.156 ms] shim         speculate site=poll:GPU_IRQ_RAWSTAT:20000:set checks=1\n";
         "  [7444.156 ms] shim         speculate site=kbase_gpu_cache_clean@unlock#a2b8dc225b257db3 checks=0\n";
         "  [7444.157 ms] shim         speculate site=kbase_pm_do_poweroff@poll#8110d7ce29743eea checks=0\n";
         "  [7444.217 ms] shim         speculate site=poll:SHADER_READY_LO:ff:clear checks=1\n";
         "  [7444.218 ms] shim         speculate site=kbase_pm_do_poweroff@unlock#81140fce2979b712 checks=0\n";
         "  [7444.218 ms] shim         speculate site=<cold>@sync#64fdc4beb0bd4630 checks=0\n";
         "  [7444.219 ms] shim         speculate site=<cold>@sync#649e04beb01a92f0 checks=0\n";
         "  [7444.219 ms] shim         speculate site=<cold>@sync#64be04beb050f2f0 checks=0\n";
         "--- end of trace ---\n";
       ])
    (dump ~trace_capacity:12 ~window:1 ())

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
      ( "tally",
        [
          Alcotest.test_case "session tally covers every attempt" `Slow
            session_tally_covers_every_attempt;
          Alcotest.test_case "accesses counter matches the histogram" `Quick
            accesses_counter_matches_histogram;
        ] );
      ( "rollback",
        [ Alcotest.test_case "deep-queue rollback is exact" `Slow deep_queue_rollback_is_exact ] );
      ( "trace",
        [ Alcotest.test_case "failure dump text unchanged" `Quick failure_dump_text_unchanged ] );
    ]
