(* Multi-session recording service tests: the virtual-time scheduler,
   solo-session identity through the scheduler, the
   content-addressed recording cache (hits, coalescing, LRU eviction +
   cheap re-record through the shared stores), and the interleaving-
   determinism property — N multiplexed sessions produce exactly the blobs
   and counters of the same sessions run sequentially. *)

module Sched = Grt_sim.Sched
module Clock = Grt_sim.Clock
module Counters = Grt_sim.Counters
module Metrics = Grt_sim.Metrics
module Service = Grt.Service
module Orchestrate = Grt.Orchestrate
module Ctx = Grt.Session_ctx
module Mode = Grt.Mode
module Zoo = Grt_mlfw.Zoo
module Sku = Grt_gpu.Sku
module Profile = Grt_net.Profile

let check = Alcotest.check

(* ---- scheduler unit tests ---- *)

(* Tasks resume in global virtual-time order (arrival + private clock),
   regardless of spawn order. *)
let sched_order () =
  let s = Sched.create () in
  let log = ref [] in
  let mk name arrival_ns advance_s =
    let clock = Clock.create () in
    ignore
      (Sched.spawn s ~arrival_ns ~name ~clock (fun () ->
           log := (name ^ ":start") :: !log;
           Clock.advance_s clock advance_s;
           Clock.yield clock;
           log := (name ^ ":end") :: !log))
  in
  (* A enters at 0 and burns 100ms before its yield point; B enters at
     50ms and burns 10ms. B's yield (global 60ms) beats A's (100ms). *)
  mk "A" 0L 0.100;
  mk "B" 50_000_000L 0.010;
  Sched.run s;
  check
    Alcotest.(list string)
    "virtual-time order" [ "A:start"; "B:start"; "B:end"; "A:end" ]
    (List.rev !log);
  check Alcotest.int "every suspension resumed" (Sched.yields s + 2) (Sched.switches s);
  check Alcotest.bool "high-water time is A's end" true (Sched.now_ns s = 100_000_000L)

(* await consumes virtual time: the waiter wakes at the signaller's global
   instant, with its private clock advanced to match. *)
let sched_cond () =
  let s = Sched.create () in
  let cond = Sched.new_cond () in
  let a_clock = Clock.create () in
  let woke_at = ref (-1.0) in
  ignore
    (Sched.spawn s ~name:"waiter" ~clock:a_clock (fun () ->
         Sched.await s cond;
         woke_at := Clock.now_s a_clock));
  let b_clock = Clock.create () in
  ignore
    (Sched.spawn s ~arrival_ns:10_000_000L ~name:"signaller" ~clock:b_clock
       (fun () ->
         Clock.advance_s b_clock 0.020;
         Sched.signal_all s cond));
  Sched.run s;
  (* signaller's global time at the signal: 10ms arrival + 20ms burned *)
  check (Alcotest.float 1e-9) "woke at the signal instant" 0.030 !woke_at

let sched_deadlock () =
  let s = Sched.create () in
  let cond = Sched.new_cond () in
  let clock = Clock.create () in
  ignore (Sched.spawn s ~name:"stuck" ~clock (fun () -> Sched.await s cond));
  match Sched.run s with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Sched.Deadlock [ "stuck" ] -> ()
  | exception Sched.Deadlock names ->
      Alcotest.failf "wrong deadlock set: %s" (String.concat "," names)

(* A raising task is recorded, not propagated; other tasks finish. *)
let sched_failure () =
  let s = Sched.create () in
  let finished = ref false in
  let c1 = Clock.create () and c2 = Clock.create () in
  ignore (Sched.spawn s ~name:"bad" ~clock:c1 (fun () -> failwith "boom"));
  ignore (Sched.spawn s ~name:"good" ~clock:c2 (fun () -> finished := true));
  Sched.run s;
  check Alcotest.bool "good task finished" true !finished;
  match Sched.failures s with
  | [ ("bad", Failure msg, _) ] -> check Alcotest.string "exn carried" "boom" msg
  | fs -> Alcotest.failf "wrong failures: %d entries" (List.length fs)

(* ---- solo identity: one session under the scheduler is byte-identical
   to the same session run directly (golden preservation) ---- *)

let solo_identity () =
  let seed = 42L in
  let direct =
    Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_mds
      ~sku:Sku.g71_mp8 ~net:Zoo.mnist ~seed ()
  in
  let cfg = Mode.default_config Mode.Ours_mds in
  let ctx =
    Ctx.create ~cfg ~profile:Profile.wifi ~sku:Sku.g71_mp8 ~net:Zoo.mnist
      ~seed ~granularity:`Monolithic ()
  in
  let pipeline = Orchestrate.Pipeline.create ctx in
  let s = Sched.create () in
  let result = ref None in
  ignore
    (Sched.spawn s ~name:"solo" ~clock:ctx.Ctx.clock (fun () ->
         result := Some (Orchestrate.Pipeline.run pipeline)));
  Sched.run s;
  match !result with
  | None -> Alcotest.fail "pipeline did not finish"
  | Some o ->
      check Alcotest.bool "blob identical" true
        (Bytes.equal direct.Orchestrate.blob o.Orchestrate.blob);
      check Alcotest.bool "counters identical" true
        (Counters.to_alist direct.Orchestrate.counters
        = Counters.to_alist o.Orchestrate.counters);
      check (Alcotest.float 1e-9) "clock readings identical"
        direct.Orchestrate.total_s o.Orchestrate.total_s

(* ---- service semantics ---- *)

let spec ?(cfg = Service.fastpath_cfg) ?(profile = Profile.wifi)
    ?(sku = Sku.g71_mp8) ?(net = Zoo.mnist) ?fault ~id ~at_ms () =
  {
    Service.client_id = id;
    arrival_ns = Int64.mul (Int64.of_int at_ms) 1_000_000L;
    net;
    sku;
    profile;
    cfg;
    inject_fault_after = fault;
  }

let blob_of = function
  | { Service.outcome = Service.Recorded o; _ } -> Some o.Orchestrate.blob
  | _ -> None

(* The service's recording is the plain Orchestrate.record of the
   key-derived seed — cacheable because it depends on the key alone. *)
let recording_matches_direct () =
  let sp = spec ~id:0 ~at_ms:0 () in
  let reports, _ = Service.run ~sequential:true (Service.create ()) [ sp ] in
  let key =
    Service.cache_key ~cfg:sp.Service.cfg ~sku:sp.Service.sku ~net:sp.Service.net
  in
  let direct =
    Orchestrate.record ~config:sp.Service.cfg ~profile:Profile.wifi
      ~mode:Mode.Ours_mds ~sku:sp.Service.sku ~net:sp.Service.net
      ~seed:(Service.recording_seed key) ()
  in
  match reports with
  | [ r ] -> (
      match blob_of r with
      | Some blob ->
          check Alcotest.bool "blob = direct record of key seed" true
            (Bytes.equal blob direct.Orchestrate.blob)
      | None -> Alcotest.failf "expected Recorded, got %s" (Service.outcome_name r.Service.outcome))
  | rs -> Alcotest.failf "expected 1 report, got %d" (List.length rs)

let second_client_hits () =
  let svc = Service.create () in
  let specs = [ spec ~id:0 ~at_ms:0 (); spec ~id:1 ~at_ms:60_000 () ] in
  let reports, _ = Service.run ~sequential:true svc specs in
  let st = Service.stats svc in
  check Alcotest.int "one recording" 1 st.Service.recordings;
  check Alcotest.int "one hit" 1 st.Service.cache_hits;
  match reports with
  | [ _; hit ] ->
      check Alcotest.bool "second client served" true
        (Service.served hit.Service.outcome);
      check Alcotest.bool "served the recorded bytes" true (hit.Service.blob_bytes > 0)
  | _ -> Alcotest.fail "expected 2 reports"

(* Simultaneous same-key arrivals under the scheduler: exactly one records,
   the rest coalesce onto the in-flight recording. *)
let coalescing () =
  let svc = Service.create () in
  let specs = List.init 4 (fun i -> spec ~id:i ~at_ms:i ()) in
  let reports, _ = Service.run svc specs in
  let st = Service.stats svc in
  check Alcotest.int "one recording" 1 st.Service.recordings;
  check Alcotest.int "rest coalesced" 3 st.Service.coalesced;
  check Alcotest.int "no failures" 0 st.Service.failures;
  List.iteri
    (fun i r ->
      if i > 0 then
        check Alcotest.string "coalesced outcome" "coalesced"
          (Service.outcome_name r.Service.outcome))
    reports

(* LRU eviction at capacity 1 with an A, B, A access pattern: the
   re-recording of A reproduces the evicted blob bit-for-bit (key-derived
   seed), and the per-key shared stores make the re-record cheap — most
   pages ship as cross-store hash references, and the shared speculation
   history hits across the recording epochs. *)
let eviction_rerecord () =
  let svc = Service.create ~cache_capacity:1 () in
  let specs =
    [
      spec ~id:0 ~net:Zoo.mnist ~at_ms:0 ();
      spec ~id:1 ~net:Zoo.alexnet ~at_ms:60_000 ();
      spec ~id:2 ~net:Zoo.mnist ~at_ms:120_000 ();
    ]
  in
  let reports, _ = Service.run ~sequential:true svc specs in
  let st = Service.stats svc in
  check Alcotest.int "all three recorded" 3 st.Service.recordings;
  check Alcotest.int "two evictions" 2 st.Service.evictions;
  match reports with
  | [ a1; _; a2 ] -> (
      match (blob_of a1, blob_of a2) with
      | Some b1, Some b2 ->
          check Alcotest.bool "re-record reproduces the evicted blob" true
            (Bytes.equal b1 b2);
          let g r k = Counters.get_int r.Service.counters (Metrics.name k) in
          check Alcotest.bool "cross-store hash refs on re-record" true
            (g a2 Metrics.Sync_cross_hits > 0);
          check Alcotest.bool "cross-epoch history hits on re-record" true
            (g a2 Metrics.Spec_cross_hits > 0);
          check Alcotest.bool "re-record ships less sync wire" true
            (g a2 Metrics.Sync_down_wire_bytes < g a1 Metrics.Sync_down_wire_bytes)
      | _ -> Alcotest.fail "expected both MNIST sessions to record")
  | _ -> Alcotest.fail "expected 3 reports"

(* ---- interleaving determinism (qcheck): any small fleet, multiplexed,
   ≡ the same fleet sequential — same outcomes
   (coalesced ≡ cache hit), same blob bytes, same per-session counters.
   The generator mixes lossy channels (recordings that genuinely collapse,
   exercising the failure retry hand-off), two mode configs per (net, sku)
   (distinct keys in one share group, so the recording turnstile sees
   contention), and bounded cache capacities (eviction, including eviction
   of inflight entries). ---- *)

let gen_fleet =
  let open QCheck2.Gen in
  let nets = [| Zoo.mnist; Zoo.mnist; Zoo.mnist; Zoo.alexnet |] in
  let skus = [| Sku.g71_mp8; Sku.g31_mp2 |] in
  let cfgs = [| Service.fastpath_cfg; Mode.default_config Mode.Ours_mds |] in
  let profiles = [| Profile.wifi; Profile.cellular; Profile.lan |] in
  let client id =
    let* net = oneofa nets in
    let* sku = oneofa skus in
    let* cfg = oneofa cfgs in
    let* base = oneofa profiles in
    let* profile =
      frequency
        [
          (2, return base);
          ( 1,
            let* drop = float_range 0.3 0.8 in
            return (Profile.degrade ~drop_prob:drop base) );
        ]
    in
    let* at_ms = int_bound 40_000 in
    let* fault = opt (int_range 1 3) in
    return (spec ~net ~sku ~cfg ~profile ?fault ~id ~at_ms ())
  in
  let* cap = oneofa [| 0; 0; 1; 2 |] in
  let* n = int_range 2 6 in
  let* specs = flatten_l (List.init n client) in
  return (cap, specs)

let normalized (r : Service.session_report) =
  let outcome =
    match r.Service.outcome with
    | Service.Coalesced -> "served"
    | Service.Cache_hit -> "served"
    | Service.Recorded _ -> "recorded"
    | Service.Failed _ -> "failed"
  in
  (r.Service.spec.Service.client_id, outcome, r.Service.blob_bytes,
   Counters.to_alist r.Service.counters)

let print_fleet (cap, specs) =
  Printf.sprintf "capacity=%d\n%s" cap
    (String.concat "\n"
       (List.map
          (fun (s : Service.client_spec) ->
            Printf.sprintf
              "  client %d at %Ldms: %s/%s cfg=%s profile=%s drop=%.3f fault=%s" s.Service.client_id
              (Int64.div s.Service.arrival_ns 1_000_000L)
              s.Service.net.Grt_mlfw.Network.name s.Service.sku.Sku.name
              (Mode.name s.Service.cfg.Mode.mode
              ^ (if s.Service.cfg.Mode.memsync_dedup then "+dedup" else "")
              ^ if s.Service.cfg.Mode.memsync_adaptive then "+adaptive" else "")
              s.Service.profile.Profile.name s.Service.profile.Profile.faults.Profile.drop_prob
              (match s.Service.inject_fault_after with
              | Some k -> string_of_int k
              | None -> "-"))
          specs))

let dump_mismatch seq mux =
  Printf.eprintf "--- multiplexed diverges from sequential ---\n";
  List.iter2
    (fun (id, o1, b1, c1) (_, o2, b2, c2) ->
      if (o1, b1, c1) <> (o2, b2, c2) then begin
        Printf.eprintf "  client %d: seq %s/%d mux %s/%d\n" id o1 b1 o2 b2;
        if c1 <> c2 then
          List.iter
            (fun (k, v) ->
              let v' = try List.assoc k c2 with Not_found -> Int64.min_int in
              if v <> v' then Printf.eprintf "    %s: seq %Ld mux %Ld\n" k v v')
            c1
      end)
    seq mux;
  flush stderr

let interleaving_deterministic =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:8 ~name:"multiplexed fleet == sequential fleet"
       ~print:print_fleet gen_fleet (fun (cap, specs) ->
         let seq, _ =
           Service.run ~sequential:true (Service.create ~cache_capacity:cap ()) specs
         in
         let seq = List.map normalized seq in
         let mux, _ = Service.run (Service.create ~cache_capacity:cap ()) specs in
         let mux = List.map normalized mux in
         if mux <> seq then dump_mismatch seq mux;
         mux = seq))

(* ---- failure retry hand-off: a lossy first client whose recording
   collapses must not doom later same-key clients. Sequential mode retries
   at the next same-key arrival; multiplexed mode promotes the first
   coalesced waiter to recorder. Both agree: client 0 fails, client 1
   records, client 2 is served. ---- *)

let lossy = Profile.degrade ~drop_prob:0.75 Profile.wifi

let failed_recording_retries () =
  let specs =
    [
      spec ~id:0 ~profile:lossy ~at_ms:0 ();
      spec ~id:1 ~at_ms:1 ();
      spec ~id:2 ~at_ms:2 ();
    ]
  in
  let go ~sequential () =
    let svc = Service.create () in
    let reports, _ = Service.run ~sequential svc specs in
    (reports, Service.stats svc)
  in
  let seq, seq_st = go ~sequential:true () in
  check
    Alcotest.(list string)
    "sequential: fail, retry, hit"
    [ "failed"; "recorded"; "cache_hit" ]
    (List.map (fun r -> Service.outcome_name r.Service.outcome) seq);
  let mux, mux_st = go ~sequential:false () in
  check
    Alcotest.(list string)
    "multiplexed: fail, promoted waiter records, coalesced"
    [ "failed"; "recorded"; "coalesced" ]
    (List.map (fun r -> Service.outcome_name r.Service.outcome) mux);
  check Alcotest.bool "normalized reports identical" true
    (List.map normalized mux = List.map normalized seq);
  check Alcotest.int "one successful recording each" seq_st.Service.recordings
    mux_st.Service.recordings;
  check Alcotest.int "one failure each" seq_st.Service.failures mux_st.Service.failures;
  (* The promoted waiter's blob is the same key-derived artifact a planned
     recorder would have produced. *)
  match (blob_of (List.nth seq 1), blob_of (List.nth mux 1)) with
  | Some b1, Some b2 -> check Alcotest.bool "retry blob identical" true (Bytes.equal b1 b2)
  | _ -> Alcotest.fail "expected the second client to record in both modes"

(* ---- the observability plane is write-only: same outcomes, same blobs,
   same per-session counters with observe on or off, in both execution
   modes — and the observed run actually collects tracks and samples. ---- *)

let observation_write_only () =
  let specs =
    [
      spec ~id:0 ~profile:lossy ~at_ms:0 ();
      spec ~id:1 ~at_ms:1 ();
      spec ~id:2 ~at_ms:2 ();
      spec ~id:3 ~net:Zoo.alexnet ~at_ms:5 ();
    ]
  in
  let go ~sequential ~observe =
    let svc = Service.create ~cache_capacity:1 () in
    let reports, _ = Service.run ~sequential ~observe svc specs in
    (List.map normalized reports, svc)
  in
  List.iter
    (fun sequential ->
      let mode = if sequential then "seq" else "mux" in
      let off, svc_off = go ~sequential ~observe:false in
      let on, svc_on = go ~sequential ~observe:true in
      check Alcotest.bool (mode ^ ": observe changes no outcome/blob/counter") true (on = off);
      check Alcotest.bool (mode ^ ": unobserved run has no observation") true
        (Service.observation svc_off = None);
      check Alcotest.int (mode ^ ": unobserved run has no tracks") 0
        (List.length (Service.fleet_tracks svc_off));
      (match Service.observation svc_on with
      | None -> Alcotest.fail (mode ^ ": observed run carries an observation")
      | Some obs ->
        check Alcotest.int
          (mode ^ ": turnaround sampled once per session")
          (List.length specs)
          (Grt_sim.Hist.count (Grt_sim.Hist.get obs.Service.obs_hists Grt_sim.Hist.Svc_turnaround_us));
        check Alcotest.int
          (mode ^ ": ttfb sampled once per session")
          (List.length specs)
          (Grt_sim.Hist.count (Grt_sim.Hist.get obs.Service.obs_hists Grt_sim.Hist.Svc_ttfb_us)));
      (* service plane + one track per session (a promoted waiter may add
         a second lane for its client) *)
      check Alcotest.bool (mode ^ ": service + per-session tracks") true
        (List.length (Service.fleet_tracks svc_on) >= 1 + List.length specs))
    [ true; false ]

(* ---- fleet generation ---- *)

let fleet_generation () =
  let opts = { Service.default_fleet with Service.clients = 500 } in
  let specs = Service.zipf_fleet opts in
  check Alcotest.int "population size" 500 (List.length specs);
  let specs' = Service.zipf_fleet opts in
  check Alcotest.bool "generation is deterministic" true (specs = specs');
  (* arrivals are sorted-ready (run sorts anyway) and ids unique *)
  let ids = List.map (fun s -> s.Service.client_id) specs in
  check Alcotest.int "ids unique" 500 (List.length (List.sort_uniq compare ids));
  (* Zipf skew: the most popular (net, sku) pair dominates a uniform share *)
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = (s.Service.net.Grt_mlfw.Network.name, s.Service.sku.Sku.name) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    specs;
  let top = Hashtbl.fold (fun _ n acc -> max n acc) tbl 0 in
  check Alcotest.bool "Zipf head dominates" true (top > 500 / 30 * 3)

(* service counters mirror stats *)
let service_counter_view () =
  let svc = Service.create () in
  let specs = [ spec ~id:0 ~at_ms:0 (); spec ~id:1 ~at_ms:60_000 () ] in
  let reports, _ = Service.run ~sequential:true svc specs in
  let c = Service.service_counters svc in
  check Alcotest.int "svc.sessions" 2 (Counters.get_int c "svc.sessions");
  check Alcotest.int "svc.recordings" 1 (Counters.get_int c "svc.recordings");
  check Alcotest.int "svc.cache_hits" 1 (Counters.get_int c "svc.cache_hits");
  let agg = Service.aggregate svc reports in
  check Alcotest.bool "aggregate includes sessions' counters" true
    (Counters.get_int agg "net.blocking_rtts" > 0);
  check Alcotest.int "aggregate includes svc counters" 2
    (Counters.get_int agg "svc.sessions")

let () =
  Alcotest.run "service"
    [
      ( "sched",
        [
          Alcotest.test_case "virtual-time order (effects)" `Quick sched_order;
          Alcotest.test_case "cond wait advances to signal time (effects)" `Quick sched_cond;
          Alcotest.test_case "deadlock detected (effects)" `Quick sched_deadlock;
          Alcotest.test_case "failure isolated (effects)" `Quick sched_failure;
        ] );
      ( "identity",
        [
          Alcotest.test_case "solo session byte-identical under scheduler (effects)" `Quick
            solo_identity;
          Alcotest.test_case "service recording = direct record of key seed" `Quick
            recording_matches_direct;
        ] );
      ( "cache",
        [
          Alcotest.test_case "second client hits" `Quick second_client_hits;
          Alcotest.test_case "eviction + cheap re-record" `Quick eviction_rerecord;
          Alcotest.test_case "service counters + aggregate" `Quick service_counter_view;
          Alcotest.test_case "simultaneous arrivals coalesce (effects)" `Quick coalescing;
          Alcotest.test_case "failed recording promotes a waiter (effects)" `Quick
            failed_recording_retries;
        ] );
      ( "determinism",
        [
          interleaving_deterministic;
          Alcotest.test_case "fleet generation" `Quick fleet_generation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "observation is write-only (effects)" `Quick
            observation_write_only;
        ] );
    ]
