(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§7) from the simulator, and measures the host-side cost of
   each artifact with Bechamel.

   Usage:
     bench/main.exe                 print every table and figure
     bench/main.exe fig7a|fig7b|table1|table2|fig8|fig9|stats|polling|rollback|ablation|faults|memsync|replay|fleet
     bench/main.exe bechamel        run the Bechamel micro-suite only
     bench/main.exe --json FILE [CMD]   additionally write the rows as JSON
     bench/main.exe --enforce-ceiling speed|replay   fail on a row above its
                                    checked-in minor-words ceiling
*)

module E = Grt.Experiments
module Mode = Grt.Mode
module Profile = Grt_net.Profile
module Json = Grt_util.Json

(* The recorder's hot loop ships whole page images; with the default 256 KB
   nursery those survive straight into the major heap and the harness
   spends a measurable slice of every run in the collector. A 32 MB minor
   heap lets a session's transient copies die young. Allocation counts
   (words/access) are unaffected — this only moves collector time, never
   what the simulator computes. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 }

let ctx = E.create_ctx ()

let hr title =
  Printf.printf "\n==== %s ====\n" title

(* --json FILE accumulator: every table registers the rows it just printed,
   converted with the Experiments row_json functions, so the JSON file
   carries exactly the printed values. *)
let json_rows : (string * Json.t) list ref = ref []

(* Speed and replay rows whose minor-word count exceeded the checked-in
   ceiling under --enforce-ceiling; the failure exit happens after the JSON
   dump. *)
let ceiling_failures : string list ref = ref []

(* Fleet checks that failed under --enforce-floor (pinned columns, hit
   rate, wall throughput, allocation ceilings); same deferred exit. *)
let fleet_floor_failures : string list ref = ref []

let add_json key to_json rows = json_rows := !json_rows @ [ (key, Json.Arr (List.map to_json rows)) ]

let fig7 profile label =
  hr
    (Printf.sprintf "Figure 7%s: recording delays, %s (RTT %.0f ms, BW %.0f Mbps)" label
       profile.Profile.name (profile.Profile.rtt_s *. 1e3)
       (profile.Profile.bandwidth_bps /. 1e6));
  Printf.printf "%-12s %10s %10s %10s %10s  %s\n" "NN" "Naive(s)" "OursM(s)" "OursMD(s)"
    "OursMDS(s)" "MDS vs Naive";
  let rows = E.fig7 ctx ~profile in
  List.iter
    (fun (r : E.fig7_row) ->
      let d m = List.assoc m r.E.delays in
      Printf.printf "%-12s %10.1f %10.1f %10.1f %10.1f  -%2.0f%%\n" r.E.workload (d Mode.Naive)
        (d Mode.Ours_m) (d Mode.Ours_md) (d Mode.Ours_mds)
        (100. *. (1. -. (d Mode.Ours_mds /. d Mode.Naive))))
    rows;
  add_json ("fig7" ^ label) E.fig7_row_json rows

let table1 () =
  hr "Table 1: record-run statistics (WiFi)";
  Printf.printf "%-12s %6s | %8s %8s %8s | %12s %10s\n" "NN" "jobs" "OursM" "OursMD" "OursMDS"
    "Naive(MB)" "OursM(MB)";
  let rows = E.table1 ctx ~profile:Profile.wifi in
  List.iter
    (fun (r : E.table1_row) ->
      Printf.printf "%-12s %6d | %8d %8d %8d | %12.2f %10.2f\n" r.E.workload r.E.gpu_jobs
        r.E.rtts_m r.E.rtts_md r.E.rtts_mds r.E.memsync_naive_mb r.E.memsync_ours_mb)
    rows;
  add_json "table1" E.table1_row_json rows

let table2 () =
  hr "Table 2: replay vs native delays";
  Printf.printf "%-12s %12s %12s %10s %8s\n" "NN" "Native(ms)" "Replay(ms)" "diff" "bitexact";
  let rows = E.table2 ctx in
  List.iter
    (fun (r : E.table2_row) ->
      Printf.printf "%-12s %12.1f %12.1f %+9.0f%% %8s\n" r.E.workload r.E.native_ms r.E.replay_ms
        (100. *. ((r.E.replay_ms /. r.E.native_ms) -. 1.))
        (if r.E.outputs_match then "yes" else "NO"))
    rows;
  add_json "table2" E.table2_row_json rows

let fig8 () =
  hr "Figure 8: breakdown of speculative commits (normalized; counts in parens)";
  Printf.printf "%-12s %8s" "NN" "(total)";
  List.iter
    (fun c -> Printf.printf " %11s" (Grt.Drivershim.category_name c))
    Grt.Drivershim.all_categories;
  print_newline ();
  let rows = E.fig8 ctx ~profile:Profile.wifi in
  List.iter
    (fun (r : E.fig8_row) ->
      Printf.printf "%-12s %8s" r.E.workload (Printf.sprintf "(%d)" r.E.total_speculated);
      List.iter (fun (_, share) -> Printf.printf " %10.1f%%" (100. *. share)) r.E.shares;
      print_newline ())
    rows;
  add_json "fig8" E.fig8_row_json rows

let fig9 () =
  hr "Figure 9: client energy for record and replay (J)";
  Printf.printf "%-12s %14s %14s %10s %10s\n" "NN" "Record/Naive" "Record/GR-T" "saving" "Replay";
  let rows = E.fig9 ctx ~profile:Profile.wifi in
  List.iter
    (fun (r : E.fig9_row) ->
      Printf.printf "%-12s %14.1f %14.1f %9.0f%% %10.3f\n" r.E.workload r.E.record_naive_j
        r.E.record_mds_j
        (100. *. (1. -. (r.E.record_mds_j /. r.E.record_naive_j)))
        r.E.replay_j)
    rows;
  add_json "fig9" E.fig9_row_json rows

let stats () =
  hr "§7.3 deferral & speculation statistics (OursMDS, WiFi)";
  Printf.printf "%-12s %9s %9s %10s %10s %9s\n" "NN" "accesses" "commits" "acc/commit"
    "spec %" "nondet";
  let rows = E.deferral_stats ctx ~profile:Profile.wifi in
  List.iter
    (fun (r : E.stats_row) ->
      Printf.printf "%-12s %9d %9d %10.1f %9.0f%% %9d\n" r.E.workload r.E.accesses r.E.commits
        r.E.accesses_per_commit r.E.speculated_pct r.E.rejected_nondet)
    rows;
  add_json "stats" E.stats_row_json rows

let polling () =
  hr "§7.3 polling-loop offload (OursMDS, WiFi)";
  Printf.printf "%-12s %10s %10s %14s %12s %10s\n" "NN" "instances" "offloaded" "RTTs w/o off"
    "RTTs w/ off" "saved";
  let rows = E.polling ctx ~profile:Profile.wifi in
  List.iter
    (fun (r : E.polling_row) ->
      Printf.printf "%-12s %10d %10d %14d %12d %10d\n" r.E.workload r.E.instances r.E.offloaded
        r.E.rtts_without_offload r.E.rtts_with_offload
        (r.E.rtts_without_offload - r.E.rtts_with_offload))
    rows;
  add_json "polling" E.polling_row_json rows

let rollback () =
  hr "§7.3 misprediction injection & rollback (MNIST, VGG16)";
  Printf.printf "%-12s %9s %10s %13s %10s\n" "NN" "detected" "rollbacks" "recovery(s)" "completed";
  let rows = E.rollback ctx ~profile:Profile.wifi ~nets:[ Grt_mlfw.Zoo.mnist; Grt_mlfw.Zoo.vgg16 ] in
  List.iter
    (fun (r : E.rollback_row) ->
      Printf.printf "%-12s %9s %10d %13.2f %10s\n" r.E.workload
        (if r.E.detected then "yes" else "NO")
        r.E.rollbacks r.E.rollback_s
        (if r.E.completed then "yes" else "NO"))
    rows;
  add_json "rollback" E.rollback_row_json rows

let faults () =
  hr "Lossy-link campaign (MNIST, OursMDS): window x drop sweep x {wifi, cellular}";
  Printf.printf "%-10s %6s %8s %10s %12s %10s %10s %10s %10s\n" "profile" "window" "drop"
    "delay(s)" "retransmits" "degraded" "rollbacks" "linkdowns" "bitexact";
  let rows = E.fault_campaign ctx ~net:Grt_mlfw.Zoo.mnist () in
  List.iter
    (fun (r : E.fault_row) ->
      Printf.printf "%-10s %6d %7.0f%% %10.1f %12d %10d %10d %10d %10s\n" r.E.profile_name
        r.E.window (100. *. r.E.drop_prob) r.E.total_s r.E.retransmits r.E.degraded_entries
        r.E.rollbacks r.E.link_downs
        (if r.E.blob_identical then "yes" else "NO"))
    rows;
  add_json "faults" E.fault_row_json rows

(* With [--enforce-ceiling] (the CI smoke) a row whose minor words per warm
   replay or per cold start exceed its checked-in ceilings fails the run. *)
let replay ~enforce () =
  hr "Replay throughput: interpreted vs compiled (host replays/sec)";
  Printf.printf "%-12s %8s %12s %12s %12s %9s %8s %8s %8s %8s %10s %9s %10s %9s %4s\n" "NN"
    "entries" "interp(r/s)" "cold(r/s)" "warm(r/s)" "speedup" "fused" "static" "dynamic" "bitexact"
    "words/warm" "ceiling" "words/cold" "ceiling" "ok";
  let rows = E.replay_bench ctx in
  let failed = ref [] in
  List.iter
    (fun (r : E.replay_bench_row) ->
      let ceiling = E.replay_words_ceiling r.E.workload in
      let ok =
        match ceiling with
        | Some (warm, cold) -> r.E.warm_minor_words <= warm && r.E.cold_minor_words <= cold
        | None -> true
      in
      if not ok then failed := ("replay " ^ r.E.workload) :: !failed;
      let show f = match ceiling with Some c -> Printf.sprintf "%.0f" (f c) | None -> "-" in
      Printf.printf
        "%-12s %8d %12.1f %12.1f %12.1f %8.1fx %8d %8d %8d %8s %10.0f %9s %10.0f %9s %4s\n"
        r.E.workload r.E.entries r.E.interpreted_rps r.E.compiled_cold_rps r.E.compiled_warm_rps
        r.E.warm_speedup r.E.fused_writes r.E.static_pages r.E.dynamic_loads
        (if r.E.bit_identical then "yes" else "NO")
        r.E.warm_minor_words (show fst) r.E.cold_minor_words (show snd)
        (if ok then "yes" else "NO"))
    rows;
  add_json "replay" E.replay_bench_row_json rows;
  if enforce then ceiling_failures := !ceiling_failures @ List.rev !failed

let memsync () =
  hr "Memsync fast-path sweep (synthetic 64-page Cmd region, 8 rounds)";
  Printf.printf "%-22s %8s %6s %12s %10s %10s %10s %6s\n" "variant" "dirtied" "dup" "wire(B)"
    "raw(B)" "visited" "hash-hits" "repro";
  let rows = E.memsync_sweep () in
  List.iter
    (fun (r : E.memsync_sweep_row) ->
      Printf.printf "%-22s %8d %5.0f%% %12d %10d %10d %10d %6s\n" r.E.variant
        r.E.dirtied_per_round (100. *. r.E.dup_rate) r.E.sweep_wire_bytes r.E.sweep_raw_bytes
        r.E.pages_visited r.E.hash_hits
        (if r.E.reproduced then "yes" else "NO"))
    rows;
  add_json "memsync_sweep" E.memsync_sweep_row_json rows;
  hr "Memsync fast path on MNIST (OursMDS, WiFi): baseline vs dedup+adaptive";
  Printf.printf "%-10s %12s %10s %10s %10s %8s %7s  %s\n" "config" "down(B)" "up(B)" "blob(KB)"
    "visited" "meta" "replay" "encodings";
  let wrows = E.memsync_workload ctx ~net:Grt_mlfw.Zoo.mnist in
  List.iter
    (fun (r : E.memsync_workload_row) ->
      Printf.printf "%-10s %12d %10d %10.1f %10d %8d %7s  %s\n" r.E.config_label
        r.E.down_wire_bytes r.E.up_wire_bytes
        (float_of_int r.E.blob_bytes /. 1024.)
        r.E.mpages_visited r.E.mpages_meta
        (if r.E.replay_matches then "yes" else "NO")
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.E.workload_enc_mix)))
    wrows;
  add_json "memsync_workload" E.memsync_workload_row_json wrows

(* Fleet floors. The wall-throughput floor carries large headroom — it
   catches collapse, not jitter. *)
let fleet_hit_rate_floor = 0.90
let fleet_wall_sessions_floor = 300.

(* The default fleet pinned exactly: recordings, coalesced, failures,
   blocking RTTs, sync MB, spec/sync cross hits, virtual span, mean and
   p95 turnaround. Virtual clocks are deterministic and this fleet has no
   failed recording, so every column must match bit for bit. *)
let fleet_pin_sig (r : E.fleet_row) =
  ( r.E.fleet_recordings,
    r.E.fleet_coalesced,
    r.E.fleet_failures,
    r.E.fleet_blocking_rtts,
    r.E.fleet_sync_wire_mb,
    (r.E.spec_cross_hits, r.E.sync_cross_hits),
    r.E.virtual_s,
    r.E.mean_turnaround_s,
    r.E.p95_turnaround_s )

let fleet_pin = (30, 9970, 0, 23570, 0.641148, (0, 0), 50.43346988, 1.2175483681595014, 8.949741546)

let wall_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fleet ~enforce () =
  hr
    (Printf.sprintf
       "Fleet: recording service, %d Zipf(%.1f) clients over %d NNs x %d SKUs"
       Grt.Service.default_fleet.Grt.Service.clients Grt.Service.default_fleet.Grt.Service.zipf_s
       (List.length Grt.Service.default_fleet.Grt.Service.nets)
       (List.length Grt.Service.default_fleet.Grt.Service.skus));
  Printf.printf "%7s %5s %5s %6s %5s %9s %9s %10s %8s %9s %9s %10s %10s\n" "clients" "keys" "rec"
    "hits" "fail" "hitrate" "wall s/s" "sync(MB)" "RTTs" "crossS" "crossM" "words/ses" "prom/ses";
  let row, _ = E.fleet ~options:Grt.Service.default_fleet ~wall:wall_clock () in
  Printf.printf "%7d %5d %5d %6d %5d %8.1f%% %9.0f %10.2f %8d %9d %9d %10.0f %10.0f\n"
    row.E.fleet_clients row.E.distinct_keys row.E.fleet_recordings
    (row.E.fleet_cache_hits + row.E.fleet_coalesced)
    row.E.fleet_failures
    (100. *. row.E.fleet_hit_rate)
    row.E.wall_sessions_per_s row.E.fleet_sync_wire_mb row.E.fleet_blocking_rtts
    row.E.spec_cross_hits row.E.sync_cross_hits row.E.minor_words_per_session
    row.E.promoted_words_per_session;
  Printf.printf "  virtual span %.8fs, turnaround mean %.6fs, p95 %.9fs\n" row.E.virtual_s
    row.E.mean_turnaround_s row.E.p95_turnaround_s;
  add_json "fleet" E.fleet_row_json [ row ];
  if enforce then begin
    let fail fmt = Printf.ksprintf (fun m -> fleet_floor_failures := m :: !fleet_floor_failures) fmt in
    if fleet_pin_sig row <> fleet_pin then fail "default fleet diverges from its pinned columns";
    if row.E.fleet_hit_rate < fleet_hit_rate_floor then
      fail "hit rate %.3f below floor %.2f" row.E.fleet_hit_rate fleet_hit_rate_floor;
    if row.E.wall_sessions_per_s < fleet_wall_sessions_floor then
      fail "%.0f wall sessions/s below floor %.0f" row.E.wall_sessions_per_s
        fleet_wall_sessions_floor;
    if row.E.minor_words_per_session > E.fleet_minor_words_ceiling then
      fail "%.0f minor words/session above ceiling %.0f" row.E.minor_words_per_session
        E.fleet_minor_words_ceiling;
    if row.E.promoted_words_per_session > E.fleet_promoted_words_ceiling then
      fail "%.0f promoted words/session above ceiling %.0f" row.E.promoted_words_per_session
        E.fleet_promoted_words_ceiling
  end

(* Simulator raw-speed smoke. Prints one row per recording configuration
   with the accesses/sec throughput and the minor-words/access allocation
   rate against its checked-in ceiling; with [--enforce-ceiling] (the CI
   smoke) a row above its ceiling fails the run. *)
let speed ~enforce () =
  hr "Simulator speed: recording hot loop (host-side, GPU time excluded)";
  Printf.printf "%-28s %9s %6s %9s %12s %11s %9s %6s\n" "config" "accesses" "iters" "host(s)"
    "accesses/s" "words/acc" "ceiling" "ok";
  let rows = E.speed ctx in
  let failed = ref [] in
  List.iter
    (fun (r : E.speed_row) ->
      let ceiling = E.speed_ceiling r.E.speed_label in
      let ok = match ceiling with Some c -> r.E.minor_words_per_access <= c | None -> true in
      if not ok then failed := r.E.speed_label :: !failed;
      Printf.printf "%-28s %9d %6d %9.3f %12.0f %11.1f %9s %6s\n" r.E.speed_label
        r.E.speed_accesses r.E.speed_iters r.E.speed_host_s r.E.accesses_per_s
        r.E.minor_words_per_access
        (match ceiling with Some c -> Printf.sprintf "%.0f" c | None -> "-")
        (if ok then "yes" else "NO"))
    rows;
  add_json "speed" E.speed_row_json rows;
  (* The failure exit waits until the JSON file is written, so the CI
     artifact still carries the regressing rows. *)
  if enforce then ceiling_failures := !ceiling_failures @ List.map (( ^ ) "speed ") (List.rev !failed)

let ablation () =
  hr "Ablation of design knobs (MobileNet, WiFi)";
  Printf.printf "%-38s %10s %8s %10s\n" "variant" "delay(s)" "RTTs" "sync(MB)";
  let rows = E.ablation ctx ~profile:Profile.wifi ~net:Grt_mlfw.Zoo.mobilenet in
  List.iter
    (fun (r : E.ablation_row) ->
      Printf.printf "%-38s %10.1f %8d %10.2f\n" r.E.label r.E.delay_s r.E.rtts r.E.sync_mb)
    rows;
  add_json "ablation" E.ablation_row_json rows

(* ---- Bechamel micro-suite: host-side cost of regenerating each artifact
   (MNIST-scale so samples stay short). ---- *)

let bechamel_tests () =
  let open Bechamel in
  let mnist = Grt_mlfw.Zoo.mnist in
  let record mode profile () =
    ignore
      (Grt.Orchestrate.record ~profile ~mode ~sku:Grt_gpu.Sku.g71_mp8 ~net:mnist ~seed:42L ())
  in
  let replay_blob =
    lazy
      (let o =
         Grt.Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_mds
           ~sku:Grt_gpu.Sku.g71_mp8 ~net:mnist ~seed:42L ()
       in
       o.Grt.Orchestrate.blob)
  in
  let plan = Grt_mlfw.Network.expand mnist in
  let input = Grt_mlfw.Runner.input_values plan ~seed:42L in
  let params = Grt_mlfw.Runner.weight_values plan ~seed:42L in
  [
    Test.make ~name:"fig7.record.naive" (Staged.stage (record Mode.Naive Profile.wifi));
    Test.make ~name:"fig7.record.ours_mds" (Staged.stage (record Mode.Ours_mds Profile.wifi));
    Test.make ~name:"fig7b.record.cellular" (Staged.stage (record Mode.Ours_mds Profile.cellular));
    Test.make ~name:"table1.record.ours_m" (Staged.stage (record Mode.Ours_m Profile.wifi));
    Test.make ~name:"table1.record.ours_md" (Staged.stage (record Mode.Ours_md Profile.wifi));
    Test.make ~name:"table2.native"
      (Staged.stage (fun () ->
           let clock = Grt_sim.Clock.create () in
           ignore
             (Grt.Native.run_inference ~clock ~sku:Grt_gpu.Sku.g71_mp8 ~net:mnist ~seed:42L
                ~input ())));
    Test.make ~name:"table2.replay"
      (Staged.stage (fun () ->
           ignore
             (Grt.Orchestrate.replay_recording ~sku:Grt_gpu.Sku.g71_mp8
                ~blob:(Lazy.force replay_blob) ~input ~params ~seed:42L ())));
    Test.make ~name:"fig9.energy.record"
      (Staged.stage (record Mode.Ours_mds Profile.cellular));
    Test.make ~name:"memsync.range_coder"
      (Staged.stage (fun () ->
           let rng = Grt_util.Rng.create ~seed:7L in
           let page = Bytes.make 4096 '\000' in
           for _ = 0 to 127 do
             Bytes.set page (Grt_util.Rng.int rng 4096) 'x'
           done;
           ignore (Grt_util.Range_coder.encode page)));
  ]

let run_bechamel () =
  let open Bechamel in
  hr "Bechamel: host-side cost per artifact (monotonic clock)";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.5) () in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some (ns :: _) -> Printf.printf "%-28s %12.3f ms/run\n%!" name (ns /. 1e6)
          | Some [] | None -> Printf.printf "%-28s (no estimate)\n%!" name)
        analyzed)
    (bechamel_tests ())

let all () =
  fig7 Profile.wifi "a";
  fig7 Profile.cellular "b";
  table1 ();
  table2 ();
  fig8 ();
  fig9 ();
  stats ();
  polling ();
  rollback ();
  ablation ();
  faults ();
  memsync ();
  replay ~enforce:false ();
  fleet ~enforce:false ();
  speed ~enforce:false ();
  run_bechamel ()

let () =
  (* Strip --json FILE anywhere on the command line; the first remaining
     argument (if any) selects the command. *)
  let enforce_ceiling = ref false in
  let enforce_floor = ref false in
  let rec split json cmds = function
    | [] -> (json, List.rev cmds)
    | "--json" :: file :: rest -> split (Some file) cmds rest
    | [ "--json" ] ->
      Printf.eprintf "--json needs a FILE argument\n";
      exit 2
    | "--enforce-ceiling" :: rest ->
      enforce_ceiling := true;
      split json cmds rest
    | "--enforce-floor" :: rest ->
      enforce_floor := true;
      split json cmds rest
    | a :: rest -> split json (a :: cmds) rest
  in
  let json_file, cmds = split None [] (List.tl (Array.to_list Sys.argv)) in
  (match match cmds with [] -> "all" | c :: _ -> c with
  | "fig7a" -> fig7 Profile.wifi "a"
  | "fig7b" -> fig7 Profile.cellular "b"
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "fig8" -> fig8 ()
  | "fig9" -> fig9 ()
  | "stats" -> stats ()
  | "polling" -> polling ()
  | "rollback" -> rollback ()
  | "ablation" -> ablation ()
  | "faults" -> faults ()
  | "memsync" -> memsync ()
  | "replay" -> replay ~enforce:!enforce_ceiling ()
  | "fleet" -> fleet ~enforce:!enforce_floor ()
  | "speed" -> speed ~enforce:!enforce_ceiling ()
  | "bechamel" -> run_bechamel ()
  | "all" -> all ()
  | other ->
    Printf.eprintf
      "unknown command %s (expected \
       fig7a|fig7b|table1|table2|fig8|fig9|stats|polling|rollback|ablation|faults|memsync|replay|fleet|speed|bechamel|all)\n"
      other;
    exit 2);
  (match json_file with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    let host =
      Json.Obj
        [
          ("cores", Json.int (Grt_util.Par.recommended_domains ()));
          ("ocaml", Json.Str Sys.ocaml_version);
        ]
    in
    output_string oc (Json.to_string (Json.Obj (("host", host) :: !json_rows)));
    output_string oc "\n";
    close_out oc;
    Printf.printf "\nwrote %s (%d tables)\n" path (List.length !json_rows));
  (match List.rev !fleet_floor_failures with
  | [] -> ()
  | msgs ->
    Printf.eprintf "fleet: floor violations:\n";
    List.iter (fun m -> Printf.eprintf "  %s\n" m) msgs;
    exit 1);
  match !ceiling_failures with
  | [] -> ()
  | labels ->
    Printf.eprintf "minor words above checked-in ceiling: %s\n"
      (String.concat ", " labels);
    exit 1
