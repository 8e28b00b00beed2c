(* Multi-session recording service tests: the content-addressed recording
   cache (hits, coalescing, LRU eviction + cheap re-record through the
   shared stores), failure hand-off to a promoted waiter, and the fleet
   timeline invariants — share-group recordings take turns in decision
   order, waiters are served only after the recording they waited on, and
   every recorded blob is the direct recording of its key. *)

module Metrics = Grt_sim.Metrics
module Tracer = Grt_sim.Tracer
module Service = Grt.Service
module Orchestrate = Grt.Orchestrate
module Ctx = Grt.Session_ctx
module Mode = Grt.Mode
module Zoo = Grt_mlfw.Zoo
module Sku = Grt_gpu.Sku
module Profile = Grt_net.Profile

let check = Alcotest.check

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
  let reports, _ = Service.run (Service.create ()) [ sp ] in
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

(* Under heavy loss a recording can still depend on its channel: MNIST on
   G31-MP2 under its key seed, with 31% loss, gives one blob over lan and
   another over cellular, where the retransmissions outlast the driver's
   job watchdog and it soft-resets the GPU once more. Whichever blob the
   cache holds, the client must get the same answer: both replay,
   interpreted and compiled, to bit-identical outputs, each applying
   exactly its own blob's entries. *)
let lossy_channels_replay_alike () =
  let net = Zoo.mnist and sku = Sku.g31_mp2 in
  let cfg = Mode.default_config Mode.Ours_mds in
  let seed = Service.recording_seed (Service.cache_key ~cfg ~sku ~net) in
  let plan = Grt_mlfw.Network.expand net in
  let input = Grt_mlfw.Runner.input_values plan ~seed:7L in
  let params = Grt_mlfw.Runner.weight_values plan ~seed:7L in
  let bits (r : Grt.Replayer.result) = Array.map Int32.bits_of_float r.Grt.Replayer.output in
  let replays base =
    let o =
      Orchestrate.record ~config:cfg ~profile:(Profile.degrade ~drop_prob:0.31 base)
        ~mode:cfg.Mode.mode ~sku ~net ~seed ()
    in
    let blob = o.Orchestrate.blob in
    let entries = Array.length o.Orchestrate.recording.Grt.Recording.entries in
    let interp = (Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:7L ()).Orchestrate.r in
    let prog = Orchestrate.compile_recording ~blob () in
    let compiled = (Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:7L ()).Orchestrate.r in
    List.iter
      (fun (how, (r : Grt.Replayer.result)) ->
        check Alcotest.int
          (Printf.sprintf "%s %s replay applies its blob's entries" base.Profile.name how)
          entries r.Grt.Replayer.entries_applied)
      [ ("interpreted", interp); ("compiled", compiled) ];
    check Alcotest.bool (base.Profile.name ^ " compiled = interpreted") true (bits interp = bits compiled);
    bits interp
  in
  check Alcotest.bool "lan and cellular blobs give the same output" true
    (replays Profile.lan = replays Profile.cellular)

(* A blob resident from an earlier run is a cache hit. *)
let second_client_hits () =
  let svc = Service.create () in
  ignore (Service.run svc [ spec ~id:0 ~at_ms:0 () ]);
  let reports, _ = Service.run svc [ spec ~id:1 ~at_ms:60_000 () ] in
  let st = Service.stats svc in
  check Alcotest.int "one recording" 1 st.Service.recordings;
  check Alcotest.int "one hit" 1 st.Service.cache_hits;
  match reports with
  | [ hit ] ->
      check Alcotest.string "second client hits" "cache_hit"
        (Service.outcome_name hit.Service.outcome);
      check Alcotest.bool "served the recorded bytes" true (hit.Service.blob_bytes > 0)
  | _ -> Alcotest.fail "expected 1 report"

(* Simultaneous same-key arrivals: exactly one records, the rest coalesce
   onto the in-flight recording. *)
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
  let reports, _ = Service.run svc specs in
  let st = Service.stats svc in
  check Alcotest.int "all three recorded" 3 st.Service.recordings;
  check Alcotest.int "two evictions" 2 st.Service.evictions;
  match reports with
  | [ a1; _; a2 ] -> (
      match (blob_of a1, blob_of a2) with
      | Some b1, Some b2 ->
          check Alcotest.bool "re-record reproduces the evicted blob" true
            (Bytes.equal b1 b2);
          let g r k = Metrics.get_int r.Service.counters k in
          check Alcotest.bool "cross-store hash refs on re-record" true
            (g a2 Metrics.Sync_cross_hits > 0);
          check Alcotest.bool "cross-epoch history hits on re-record" true
            (g a2 Metrics.Spec_cross_hits > 0);
          check Alcotest.bool "re-record ships less sync wire" true
            (g a2 Metrics.Sync_down_wire_bytes < g a1 Metrics.Sync_down_wire_bytes)
      | _ -> Alcotest.fail "expected both MNIST sessions to record")
  | _ -> Alcotest.fail "expected 3 reports"

(* ---- fleet timeline invariants (qcheck) ----

   The generator mixes lossy channels (recordings that genuinely collapse,
   exercising the promotion hand-off), two mode configs per (net, sku)
   (distinct keys in one share group, so the turnstile sees contention),
   and bounded cache capacities (eviction, including eviction of inflight
   entries). ---- *)

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

(* Everything a report carries except the parsed outcome record: client,
   outcome, turnaround, blob bytes and the session's counters. *)
let normalized (r : Service.session_report) =
  let outcome =
    match r.Service.outcome with
    | Service.Failed msg -> "failed: " ^ msg
    | o -> Service.outcome_name o
  in
  ( r.Service.spec.Service.client_id,
    outcome,
    r.Service.turnaround_s,
    r.Service.blob_bytes,
    Metrics.to_alist r.Service.counters )

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
              ^ if s.Service.cfg.Mode.memsync_tagged then "+dedup+adaptive" else "")
              s.Service.profile.Profile.name s.Service.profile.Profile.faults.Profile.drop_prob
              (match s.Service.inject_fault_after with
              | Some k -> string_of_int k
              | None -> "-"))
          specs))

let finish_s (r : Service.session_report) =
  (Int64.to_float r.Service.spec.Service.arrival_ns *. 1e-9) +. r.Service.turnaround_s

(* One recording read back from an observed run's tracks: who ran it, its
   decision index, and its "record" span on the global timeline. *)
type recording = {
  rc_idx : int;
  rc_key : Service.key;
  rc_group : string;
  rc_ok : bool;
  rc_start : float;
  rc_stop : float;
  rc_promoted : bool;
}

let fail_inv fmt = Printf.ksprintf (fun m -> Printf.eprintf "invariant: %s\n%!" m; false) fmt

(* The recording client's session run directly under the key-derived seed,
   memoized across property cases. The client's channel and fault are part
   of the memo key: a heavy loss on a slow channel can change the blob
   (e.g. MNIST/G31 OursMDS over cellular with 31% loss). *)
let direct_blobs = Hashtbl.create 8

let direct_blob (sp : Service.client_spec) key =
  let memo_key =
    (key, sp.Service.profile.Profile.name, sp.Service.profile.Profile.faults.Profile.drop_prob,
     sp.Service.inject_fault_after)
  in
  match Hashtbl.find_opt direct_blobs memo_key with
  | Some b -> b
  | None ->
    let o =
      Orchestrate.record ?inject_fault_after:sp.Service.inject_fault_after ~config:sp.Service.cfg
        ~profile:sp.Service.profile ~mode:sp.Service.cfg.Mode.mode ~sku:sp.Service.sku
        ~net:sp.Service.net ~seed:(Service.recording_seed key) ()
    in
    Hashtbl.add direct_blobs memo_key o.Orchestrate.blob;
    o.Orchestrate.blob

let timeline_invariants (cap, specs) =
  let run observe =
    let svc = Service.create ~cache_capacity:cap () in
    let reports, rs = Service.run ~observe svc specs in
    (svc, reports, rs)
  in
  let _, plain, _ = run false in
  let svc, reports, rs = run true in
  let sorted =
    List.stable_sort
      (fun (a : Service.client_spec) b ->
        compare (a.Service.arrival_ns, a.Service.client_id) (b.Service.arrival_ns, b.Service.client_id))
      specs
  in
  let ids l = List.map (fun (s : Service.client_spec) -> s.Service.client_id) l in
  let reported = List.map (fun (r : Service.session_report) -> r.Service.spec) reports in
  let n = List.length specs in
  let report = Array.of_list reports in
  let idx_of = Hashtbl.create n in
  List.iteri (fun i id -> Hashtbl.replace idx_of id i) (ids sorted);
  let group (sp : Service.client_spec) = sp.Service.net.Grt_mlfw.Network.name ^ "|" ^ sp.Service.sku.Sku.name in
  (* every record span of the run, session tracks first, then promoted *)
  let tracks = List.tl (Service.fleet_tracks svc) in
  let recordings =
    List.concat
      (List.mapi
         (fun ti (tr : Tracer.track) ->
           let i = Hashtbl.find idx_of (tr.Tracer.track_tid - 1) in
           let r = report.(i) in
           let shift ns = Int64.to_float (Int64.add tr.Tracer.track_offset_ns ns) *. 1e-9 in
           List.filter_map
             (fun (sp : Tracer.span) ->
               if sp.Tracer.sp_cat <> Tracer.Svc_record then None
               else
                 Some
                   {
                     rc_idx = i;
                     rc_key = r.Service.key;
                     rc_group = group r.Service.spec;
                     rc_ok = (match r.Service.outcome with Service.Recorded _ -> true | _ -> false);
                     rc_start = shift sp.Tracer.sp_start_ns;
                     rc_stop = shift sp.Tracer.sp_stop_ns;
                     rc_promoted = ti >= n;
                   })
             (Tracer.spans tr.Tracer.track_tracer))
         tracks)
  in
  let by_idx = List.sort (fun a b -> compare a.rc_idx b.rc_idx) recordings in
  (* the latest recording of [key] decided before [i] satisfying [p] *)
  let latest_before i key p =
    List.fold_left
      (fun acc rc -> if rc.rc_idx < i && rc.rc_key = key && p rc then Some rc else acc)
      None by_idx
  in
  let one_report_each =
    ids reported = ids sorted || fail_inv "reports not one per client in arrival order"
  in
  let observe_neutral =
    List.map normalized plain = List.map normalized reports
    || fail_inv "observed run differs from the unobserved one"
  in
  let turns =
    let rec ok = function
      | a :: (b :: _ as rest) ->
        (a.rc_group <> b.rc_group || b.rc_start >= a.rc_stop
        || fail_inv "group %s: recording of #%d starts at %.9f before #%d ends at %.9f" a.rc_group
             b.rc_idx b.rc_start a.rc_idx a.rc_stop)
        && ok rest
      | _ -> true
    in
    List.for_all
      (fun g -> ok (List.filter (fun rc -> rc.rc_group = g) by_idx))
      (List.sort_uniq compare (List.map (fun rc -> rc.rc_group) by_idx))
  in
  let coalesced_after_recording =
    Array.to_list report
    |> List.mapi (fun i r -> (i, r))
    |> List.for_all (fun (i, (r : Service.session_report)) ->
           match r.Service.outcome with
           | Service.Coalesced -> (
             match latest_before i r.Service.key (fun rc -> rc.rc_ok) with
             | Some rc ->
               finish_s r >= rc.rc_stop
               || fail_inv "client #%d served at %.9f before its recording settled at %.9f" i
                    (finish_s r) rc.rc_stop
             | None -> fail_inv "client #%d coalesced onto no successful recording" i)
           | _ -> true)
  in
  let promoted_after_failure =
    List.for_all
      (fun rc ->
        (not rc.rc_promoted)
        ||
        match latest_before rc.rc_idx rc.rc_key (fun f -> not f.rc_ok) with
        | Some f ->
          rc.rc_start >= f.rc_stop
          || fail_inv "promoted #%d records at %.9f before the failure at %.9f" rc.rc_idx rc.rc_start
               f.rc_stop
        | None -> fail_inv "promoted #%d replaces no failed recording" rc.rc_idx)
      recordings
  in
  let makespan =
    List.for_all
      (fun r -> Int64.to_float rs.Service.rs_virtual_ns *. 1e-9 >= finish_s r -. 1e-9)
      reports
    || fail_inv "makespan below a session's finish"
  in
  let blobs_direct =
    List.for_all
      (fun (r : Service.session_report) ->
        match r.Service.outcome with
        | Service.Recorded o ->
          Bytes.equal o.Orchestrate.blob (direct_blob r.Service.spec r.Service.key)
          || fail_inv "client %d: blob differs from the direct recording" r.Service.spec.Service.client_id
        | _ -> true)
      reports
  in
  one_report_each && observe_neutral && turns && coalesced_after_recording && promoted_after_failure
  && makespan && blobs_direct

let fleet_timeline =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20 ~name:"fleet timeline invariants" ~print:print_fleet gen_fleet
       timeline_invariants)

(* ---- failure retry hand-off: a lossy first client whose recording
   collapses must not doom later same-key clients. The first coalesced
   waiter is promoted to recorder; the waiter behind it is served. ---- *)

let lossy = Profile.degrade ~drop_prob:0.75 Profile.wifi

let failed_recording_retries () =
  let specs =
    [
      spec ~id:0 ~profile:lossy ~at_ms:0 ();
      spec ~id:1 ~at_ms:1 ();
      spec ~id:2 ~at_ms:2 ();
    ]
  in
  let svc = Service.create () in
  let reports, _ = Service.run svc specs in
  let st = Service.stats svc in
  check
    Alcotest.(list string)
    "fail, promoted waiter records, coalesced"
    [ "failed"; "recorded"; "coalesced" ]
    (List.map (fun r -> Service.outcome_name r.Service.outcome) reports);
  check Alcotest.int "one successful recording" 1 st.Service.recordings;
  check Alcotest.int "one failure" 1 st.Service.failures;
  check Alcotest.int "one promotion" 1 st.Service.promotions;
  (* The promoted waiter's blob is the same key-derived artifact a planned
     recorder would have produced. *)
  let sp = List.nth specs 1 in
  let key = Service.cache_key ~cfg:sp.Service.cfg ~sku:sp.Service.sku ~net:sp.Service.net in
  match blob_of (List.nth reports 1) with
  | Some b -> check Alcotest.bool "retry blob = direct record" true (Bytes.equal b (direct_blob sp key))
  | None -> Alcotest.fail "expected the second client to record"

(* ---- the failure window: c0's recording collapses seconds after c1
   arrives, inside one long ARQ backoff. c1 is promoted and must record
   from c0's failure instant, not from its own arrival. ---- *)

let failure_window () =
  let cfg = Mode.default_config Mode.Ours_mds in
  let specs =
    [
      spec ~cfg ~profile:(Profile.degrade ~drop_prob:0.6862 Profile.lan) ~fault:3 ~id:0 ~at_ms:3788 ();
      spec ~cfg ~profile:Profile.lan ~fault:3 ~id:1 ~at_ms:4051 ();
    ]
  in
  let reports, rs = Service.run (Service.create ()) specs in
  match reports with
  | [ c0; c1 ] ->
    check
      Alcotest.(list string)
      "c0 fails, c1 is promoted and records" [ "failed"; "recorded" ]
      (List.map (fun r -> Service.outcome_name r.Service.outcome) reports);
    check Alcotest.bool
      (Printf.sprintf "c1 finishes (%.3fs) after c0's failure (%.3fs)" (finish_s c1) (finish_s c0))
      true
      (finish_s c1 >= finish_s c0);
    List.iter
      (fun r ->
        check Alcotest.bool "makespan covers every session" true
          (Int64.to_float rs.Service.rs_virtual_ns *. 1e-9 >= finish_s r -. 1e-9))
      reports
  | _ -> Alcotest.fail "expected 2 reports"

(* ---- run-end checks: a client id given twice gets two reports, which
   the run refuses, naming the client. ---- *)

let duplicate_client_rejected () =
  let specs = [ spec ~id:7 ~at_ms:0 (); spec ~id:7 ~at_ms:5 () ] in
  match Service.run (Service.create ()) specs with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    check Alcotest.string "names the client" "Service.run: client 7 has 2 reports" msg

(* ---- the observability plane is write-only: same outcomes, same blobs,
   same per-session counters with observe on or off — and the observed run
   actually collects tracks and samples. ---- *)

let observation_write_only () =
  let specs =
    [
      spec ~id:0 ~profile:lossy ~at_ms:0 ();
      spec ~id:1 ~at_ms:1 ();
      spec ~id:2 ~at_ms:2 ();
      spec ~id:3 ~net:Zoo.alexnet ~at_ms:5 ();
    ]
  in
  let go ~observe =
    let svc = Service.create ~cache_capacity:1 () in
    let reports, _ = Service.run ~observe svc specs in
    (List.map normalized reports, svc)
  in
  let off, svc_off = go ~observe:false in
  let on, svc_on = go ~observe:true in
  check Alcotest.bool "observe changes no outcome/blob/counter" true (on = off);
  check Alcotest.bool "unobserved run has no observation" true (Service.observation svc_off = None);
  check Alcotest.int "unobserved run has no tracks" 0 (List.length (Service.fleet_tracks svc_off));
  (match Service.observation svc_on with
  | None -> Alcotest.fail "observed run carries an observation"
  | Some obs ->
    check Alcotest.int "turnaround sampled once per session" (List.length specs)
      (Grt_sim.Hist.count (Grt_sim.Hist.get obs.Service.obs_hists Grt_sim.Hist.Svc_turnaround_us));
    check Alcotest.int "ttfb sampled once per session" (List.length specs)
      (Grt_sim.Hist.count (Grt_sim.Hist.get obs.Service.obs_hists Grt_sim.Hist.Svc_ttfb_us)));
  (* service plane + one track per session (a promoted waiter may add
     a second lane for its client) *)
  check Alcotest.bool "service + per-session tracks" true
    (List.length (Service.fleet_tracks svc_on) >= 1 + List.length specs)

(* ---- session context lifetime: a served session never expands its
   network plan (only the recording stages read it), and the observed
   run's track order is arrival order, then promoted waiters' record-phase
   tracks. ---- *)

let served_session_leaves_plan_unexpanded () =
  let cfg = Service.fastpath_cfg in
  let ctx seed =
    Ctx.create ~cfg ~profile:Profile.wifi ~sku:Sku.g71_mp8 ~net:Zoo.mnist ~seed
      ~granularity:`Monolithic ()
  in
  let recorder = ctx 7L in
  check Alcotest.bool "fresh context: plan unexpanded" false (Ctx.plan_expanded recorder);
  let outcome = Orchestrate.Pipeline.run (Orchestrate.Pipeline.create recorder) in
  check Alcotest.bool "recording expanded the plan" true (Ctx.plan_expanded recorder);
  let server = ctx 8L in
  Orchestrate.serve_cached server ~blob:outcome.Orchestrate.blob;
  check Alcotest.bool "serving left the plan unexpanded" false (Ctx.plan_expanded server)

let track_order () =
  let specs =
    [
      spec ~id:0 ~profile:lossy ~at_ms:0 ();
      spec ~id:1 ~at_ms:1 ();
      spec ~id:2 ~at_ms:2 ();
      spec ~id:3 ~net:Zoo.alexnet ~at_ms:5 ();
      (* first runs long after client 1's promotion *)
      spec ~id:4 ~net:Zoo.alexnet ~at_ms:600_000 ();
    ]
  in
  let svc = Service.create () in
  ignore (Service.run ~observe:true svc specs);
  check
    Alcotest.(list string)
    "arrival order, then the promoted waiter's record track"
    [ "service"; "client-0"; "client-1"; "client-2"; "client-3"; "client-4"; "client-1" ]
    (List.map (fun (tr : Tracer.track) -> tr.Tracer.track_name) (Service.fleet_tracks svc))

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
  let reports, _ = Service.run svc specs in
  let c = Service.service_counters svc in
  check Alcotest.int "svc.sessions" 2 (Metrics.get_int c Metrics.Svc_sessions);
  check Alcotest.int "svc.recordings" 1 (Metrics.get_int c Metrics.Svc_recordings);
  check Alcotest.int "svc.coalesced" 1 (Metrics.get_int c Metrics.Svc_coalesced);
  let agg = Service.aggregate svc reports in
  check Alcotest.bool "aggregate includes sessions' counters" true
    (Metrics.get_int agg Metrics.Net_blocking_rtts > 0);
  check Alcotest.int "aggregate includes svc counters" 2
    (Metrics.get_int agg Metrics.Svc_sessions)

let () =
  Alcotest.run "service"
    [
      ( "identity",
        [
          Alcotest.test_case "service recording = direct record of key seed" `Quick
            recording_matches_direct;
          Alcotest.test_case "served session leaves the plan unexpanded" `Quick
            served_session_leaves_plan_unexpanded;
          Alcotest.test_case "lossy channels' blobs replay alike" `Quick
            lossy_channels_replay_alike;
        ] );
      ( "cache",
        [
          Alcotest.test_case "second client hits" `Quick second_client_hits;
          Alcotest.test_case "eviction + cheap re-record" `Quick eviction_rerecord;
          Alcotest.test_case "service counters + aggregate" `Quick service_counter_view;
          Alcotest.test_case "simultaneous arrivals coalesce (effects)" `Quick coalescing;
          Alcotest.test_case "failed recording promotes a waiter (effects)" `Quick
            failed_recording_retries;
          Alcotest.test_case "promoted waiter records after the failure" `Quick failure_window;
          Alcotest.test_case "duplicate client id rejected" `Quick duplicate_client_rejected;
        ] );
      ( "determinism",
        [
          fleet_timeline;
          Alcotest.test_case "fleet generation" `Quick fleet_generation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "observation is write-only (effects)" `Quick
            observation_write_only;
          Alcotest.test_case "tracks register in plan order" `Quick track_order;
        ] );
    ]
