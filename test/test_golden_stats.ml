(* Golden-stats differential test (behaviour-preservation harness).

   Records MNIST at fixed seeds in every recorder mode and asserts the full
   [Orchestrate.record_outcome] stat tuple — blob hash, entry count, blocking
   RTTs, sync bytes, commit/speculation counts by category, polling, rollback
   and retransmission counters — against checked-in expected values captured
   before the engine-module refactor. Any behavioural drift in the recorder
   (deferral, speculation, polling offload, memsync, link accounting) shows
   up as a one-line diff here. *)

module O = Grt.Orchestrate
module Mode = Grt.Mode
module Recording = Grt.Recording

let check = Alcotest.check

let tuple_of (o : O.record_outcome) =
  Printf.sprintf
    "blob=%016Lx entries=%d rtts=%d sync_wire=%d sync_raw=%d commits=%d spec=%d cats=[%s] \
     nondet=%d accesses=%d polls=%d/%d rollbacks=%d retransmits=%d linkdowns=%d"
    (Grt_util.Hashing.fnv1a_bytes o.O.blob)
    (Array.length o.O.recording.Recording.entries)
    o.O.blocking_rtts o.O.sync_wire_bytes o.O.sync_raw_bytes o.O.commits_total
    o.O.commits_speculated
    (String.concat ","
       (List.map
          (fun (c, n) -> Printf.sprintf "%s:%d" (Grt.Drivershim.category_name c) n)
          o.O.speculated_by_category))
    o.O.spec_rejected_nondet o.O.accesses_total o.O.poll_instances o.O.poll_offloaded
    o.O.rollbacks o.O.retransmits o.O.link_downs

let record ?history ?window ?config mode =
  O.record ?history ?window ?config ~profile:Grt_net.Profile.wifi ~mode ~sku:Grt_gpu.Sku.g71_mp8
    ~net:Grt_mlfw.Zoo.mnist ~seed:42L ()

(* Expected tuples captured at the current recording format (v2 chunked
   wire format with Merkle-chunked signed header; seed 42, WiFi, MNIST).
   The speculative mode is pinned both cold (empty history) and warm
   (fourth run sharing one history), because the two exercise different
   commit paths. *)
let expected =
  [
    ( "OursM",
      "blob=8a88735bd31e9de5 entries=1024 rtts=980 sync_wire=10103 sync_raw=507904 commits=978 \
       spec=0 cats=[Init:0,Interrupt:0,Power state:0,Polling:0,Other:0] nondet=0 accesses=978 \
       polls=170/0 rollbacks=0 retransmits=0 linkdowns=0" );
    ( "OursMD",
      "blob=220629017c094fd7 entries=1024 rtts=593 sync_wire=10103 sync_raw=507904 commits=591 \
       spec=0 cats=[Init:0,Interrupt:0,Power state:0,Polling:0,Other:0] nondet=0 accesses=978 \
       polls=170/0 rollbacks=0 retransmits=0 linkdowns=0" );
    ( "OursMDS-cold",
      "blob=220629017c094fd7 entries=1024 rtts=62 sync_wire=10103 sync_raw=507904 commits=591 \
       spec=531 cats=[Init:1,Interrupt:40,Power state:46,Polling:319,Other:125] nondet=23 \
       accesses=808 polls=170/170 rollbacks=0 retransmits=0 linkdowns=0" );
    ( "OursMDS-warm",
      "blob=220629017c094fd7 entries=1024 rtts=25 sync_wire=10103 sync_raw=507904 commits=591 \
       spec=568 cats=[Init:7,Interrupt:46,Power state:46,Polling:339,Other:130] nondet=23 \
       accesses=808 polls=170/170 rollbacks=0 retransmits=0 linkdowns=0" );
    (* window=4 + max_inflight=4 pipeline: every outcome stat — above all
       the blob hash — must match the stop-and-wait cold run; window size
       moves only the clock/energy/timing counters, which this tuple
       deliberately excludes. *)
    ( "OursMDS-w4",
      "blob=220629017c094fd7 entries=1024 rtts=62 sync_wire=10103 sync_raw=507904 commits=591 \
       spec=531 cats=[Init:1,Interrupt:40,Power state:46,Polling:319,Other:125] nondet=23 \
       accesses=808 polls=170/170 rollbacks=0 retransmits=0 linkdowns=0" );
    (* memsync fast path (dedup + adaptive encoding): the tagged wire format
       changes the blob and the sync wire accounting, and is pinned as its
       own row — the rows above must stay byte-identical to the seed. *)
    ( "OursMDS-dedup",
      "blob=09badd6a6ad764e3 entries=1024 rtts=62 sync_wire=9070 sync_raw=507904 commits=591 \
       spec=531 cats=[Init:1,Interrupt:40,Power state:46,Polling:319,Other:125] nondet=23 \
       accesses=808 polls=170/170 rollbacks=0 retransmits=0 linkdowns=0" );
  ]

let outcomes () =
  let m = record Mode.Ours_m in
  let md = record Mode.Ours_md in
  let history = Grt.Drivershim.fresh_history () in
  let cold = record ~history Mode.Ours_mds in
  ignore (record ~history Mode.Ours_mds);
  ignore (record ~history Mode.Ours_mds);
  let warm = record ~history Mode.Ours_mds in
  (* Sliding-window pipeline (window=4, max_inflight=4): timing-side
     counters move, the blob must not. *)
  let w4 =
    record
      ~history:(Grt.Drivershim.fresh_history ())
      ~window:4
      ~config:{ (Mode.default_config Mode.Ours_mds) with Mode.max_inflight = 4 }
      Mode.Ours_mds
  in
  let dedup =
    record
      ~history:(Grt.Drivershim.fresh_history ())
      ~config:
        {
          (Mode.default_config Mode.Ours_mds) with
          Mode.memsync_dedup = true;
          memsync_adaptive = true;
        }
      Mode.Ours_mds
  in
  [
    ("OursM", m);
    ("OursMD", md);
    ("OursMDS-cold", cold);
    ("OursMDS-warm", warm);
    ("OursMDS-w4", w4);
    ("OursMDS-dedup", dedup);
  ]

let actuals () = List.map (fun (name, o) -> (name, tuple_of o)) (outcomes ())

let golden () =
  let got = actuals () in
  List.iter
    (fun (name, want) -> check Alcotest.string name want (List.assoc name got))
    expected

(* The tuple pins a 64-bit hash per row; this assertion closes the
   remaining gap by comparing the six signed blobs byte-for-byte. Rows the
   expected table declares hash-equal (deferral and all three speculative
   variants encode the same entry stream) must be [Bytes.equal] — a hash
   collision cannot mask drift — and rows with distinct pinned hashes must
   actually differ. *)
let six_blobs_byte_identical () =
  let blobs = List.map (fun (name, o) -> (name, o.O.blob)) (outcomes ()) in
  let blob name = List.assoc name blobs in
  let hash_of name =
    Scanf.sscanf (List.assoc name expected) "blob=%Lx" (fun h -> h)
  in
  List.iter
    (fun (a, b) ->
      let same_hash = Int64.equal (hash_of a) (hash_of b) in
      check Alcotest.bool
        (Printf.sprintf "%s blob %s %s byte-for-byte" a
           (if same_hash then "==" else "<>")
           b)
        same_hash
        (Bytes.equal (blob a) (blob b)))
    [
      ("OursMD", "OursMDS-cold");
      ("OursMDS-cold", "OursMDS-warm");
      ("OursMDS-cold", "OursMDS-w4");
      ("OursM", "OursMD");
      ("OursMDS-cold", "OursMDS-dedup");
    ];
  (* And each blob's full hash still matches its pinned row (the tuple
     check covers this too; kept here so this test is self-contained). *)
  List.iter
    (fun (name, b) ->
      check Alcotest.int64 (name ^ " blob hash") (hash_of name) (Grt_util.Hashing.fnv1a_bytes b))
    blobs

(* The signed blob must also be stable run-to-run within one process (the
   recorder may not depend on hidden global state). *)
let rerun_stable () =
  let a = record Mode.Ours_md in
  let b = record Mode.Ours_md in
  check Alcotest.string "re-record is identical" (tuple_of a) (tuple_of b)

(* ---- fleet smoke pin: a fixed six-client fleet through the recording
   service, with every outcome, blob size and
   — for the sessions that actually record — the signed blob's hash pinned.
   This freezes the service-layer bytes the per-mode rows above cannot see:
   cache keying, coalescing and the shared-store replays. ---- *)

module Service = Grt.Service

let spec ?(cfg = Service.fastpath_cfg) ?(net = Grt_mlfw.Zoo.mnist) ?(sku = Grt_gpu.Sku.g71_mp8)
    ?(profile = Grt_net.Profile.wifi) ~id ~at_ms () =
  {
    Service.client_id = id;
    arrival_ns = Int64.mul (Int64.of_int at_ms) 1_000_000L;
    net;
    sku;
    profile;
    cfg;
    inject_fault_after = None;
  }

let fleet_specs () =
  [
    spec ~id:0 ~at_ms:0 ();
    (* same key as 0: coalesces with or hits 0's recording *)
    spec ~id:1 ~at_ms:10 ();
    (* distinct keys: second mode config, second network, second SKU *)
    spec ~id:2 ~at_ms:20 ~cfg:(Mode.default_config Mode.Ours_mds) ();
    spec ~id:3 ~at_ms:30 ~net:Grt_mlfw.Zoo.alexnet ();
    spec ~id:4 ~at_ms:40 ~sku:Grt_gpu.Sku.g31_mp2 ();
    (* late same-key arrival: a clean cache hit *)
    spec ~id:5 ~at_ms:120_000 ();
  ]

let fleet_digest () =
  let reports, _ = Service.run (Service.create ()) (fleet_specs ()) in
  String.concat " "
    (List.map
       (fun (r : Service.session_report) ->
         Printf.sprintf "%d:%s:%d%s" r.Service.spec.Service.client_id
           (Service.outcome_name r.Service.outcome)
           r.Service.blob_bytes
           (match r.Service.outcome with
           | Service.Recorded o ->
             Printf.sprintf ":%016Lx" (Grt_util.Hashing.fnv1a_bytes o.O.blob)
           | _ -> ""))
       reports)

let fleet_expected =
  "0:recorded:22802:9e96eaecb70ceddf 1:coalesced:22802 2:recorded:430196:22442473e345f5ed \
   3:recorded:49325:3e169f8dd3369369 4:recorded:21455:0c77276e1b719866 5:coalesced:22802"

let fleet_pin () = check Alcotest.string "fleet smoke digest" fleet_expected (fleet_digest ())

(* ---- fleet clock pins: every client's turnaround and the observed run's
   TTFB / coalesce-wait / turnstile-wait series (count, sum, min, max in
   µs) for the golden fleet above and for a lossy fleet whose first
   recording collapses and promotes a waiter. Virtual clocks are
   deterministic, so these are exact. ---- *)

module Hist = Grt_sim.Hist

let lossy_fleet_specs () =
  [
    spec ~id:0 ~profile:(Grt_net.Profile.degrade ~drop_prob:0.75 Grt_net.Profile.wifi) ~at_ms:0 ();
    spec ~id:1 ~at_ms:1 ();
    spec ~id:2 ~at_ms:2 ();
  ]

let fleet_clocks specs =
  let svc = Service.create () in
  let reports, _ = Service.run ~observe:true svc specs in
  let obs = Option.get (Service.observation svc) in
  let series k =
    let h = Hist.get obs.Service.obs_hists k in
    Printf.sprintf "%s=%d/%Ld/%d/%d" (Hist.key_name k) (Hist.count h) (Hist.sum h)
      (Hist.min_value h) (Hist.max_value h)
  in
  String.concat " "
    (List.map
       (fun (r : Service.session_report) ->
         Printf.sprintf "%d:%.9f" r.Service.spec.Service.client_id r.Service.turnaround_s)
       reports
    @ List.map series [ Hist.Svc_ttfb_us; Hist.Svc_coalesce_wait_us; Hist.Svc_turnstile_wait_us ])

let fleet_clocks_expected =
  "0:2.773474344 1:2.816012144 2:5.025833188 3:5.851159511 4:2.771764240 5:0.052537800 \
   svc.ttfb_us=6/5516948/0/2763474 svc.coalesce_wait_us=2/2763474/0/2763474 \
   svc.turnstile_wait_us=4/2753474/0/2753474"

let lossy_clocks_expected =
  "0:44.492561696 1:47.265036040 2:47.316573840 svc.ttfb_us=3/91755597/0/47264036 \
   svc.coalesce_wait_us=2/91755597/44491561/47264036 svc.turnstile_wait_us=2/0/0/0"

let fleet_clock_pins () =
  check Alcotest.string "golden fleet clocks" fleet_clocks_expected (fleet_clocks (fleet_specs ()));
  check Alcotest.string "lossy fleet clocks" lossy_clocks_expected
    (fleet_clocks (lossy_fleet_specs ()))

let () =
  (* Capture mode: GOLDEN_CAPTURE=1 prints the actual tuples instead of
     asserting, for refreshing the expected table after an intentional
     behaviour change. *)
  if Sys.getenv_opt "GOLDEN_CAPTURE" <> None then begin
    List.iter (fun (name, t) -> Printf.printf "    (%S, %S);\n" name t) (actuals ());
    Printf.printf "  fleet: %S\n" (fleet_digest ());
    Printf.printf "  fleet clocks: %S\n" (fleet_clocks (fleet_specs ()));
    Printf.printf "  lossy clocks: %S\n" (fleet_clocks (lossy_fleet_specs ()))
  end
  else
    Alcotest.run "grt_golden_stats"
      [
        ( "golden",
          [
            Alcotest.test_case "fixed-seed outcome stats" `Quick golden;
            Alcotest.test_case "six blobs byte-identical" `Quick six_blobs_byte_identical;
            Alcotest.test_case "re-record stability" `Quick rerun_stable;
            Alcotest.test_case "fleet smoke pin" `Quick fleet_pin;
            Alcotest.test_case "fleet clock pins" `Quick fleet_clock_pins;
          ] );
      ]
