(* grt-fleet: drive the multi-session recording service with a synthetic
   Zipf client population and report fleet-level statistics. Sessions are
   multiplexed over one virtual-time scheduler; --sequential runs the
   reference semantics instead. Throughput is sessions per second of wall
   time on a monotonic clock.

     dune exec bin/grt_fleet.exe -- --clients 10000
     dune exec bin/grt_fleet.exe -- --clients 500 --sequential --list-cache
     dune exec bin/grt_fleet.exe -- --clients 2000 --json fleet.json --cache-out cache.json
*)

open Cmdliner
module Service = Grt.Service
module E = Grt.Experiments
module Json = Grt_util.Json

let clients_arg =
  let doc = "Number of simulated clients." in
  Arg.(value & opt int 10_000 & info [ "c"; "clients" ] ~docv:"N" ~doc)

let zipf_arg =
  let doc = "Zipf skew of the (network, SKU) popularity distribution." in
  Arg.(value & opt float 1.1 & info [ "zipf" ] ~docv:"S" ~doc)

let cache_cap_arg =
  let doc = "Cache capacity in resident recordings (LRU); 0 = unbounded." in
  Arg.(value & opt int 0 & info [ "cache-cap" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Fleet generation seed (client mix, arrivals, fault draws)." in
  Arg.(value & opt int 0x666C6565 & info [ "seed" ] ~docv:"SEED" ~doc)

let interarrival_arg =
  let doc = "Mean client interarrival time in seconds (exponential)." in
  Arg.(value & opt float 0.005 & info [ "interarrival" ] ~docv:"SECONDS" ~doc)

let sequential_arg =
  let doc =
    "Run each session to completion at its arrival instead of multiplexing \
     the sessions over the virtual-time scheduler. This is the reference \
     semantics the multiplexed run is tested against: same outcomes, blobs \
     and per-session counters, with coalesced waiters reported as cache \
     hits."
  in
  Arg.(value & flag & info [ "sequential" ] ~doc)

let json_arg =
  let doc = "Write the fleet row and cache listing as JSON to $(docv)." in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let cache_out_arg =
  let doc =
    "Write the cache contents as JSON to $(docv) (render with grt-inspect \
     --cache)."
  in
  Arg.(value & opt (some string) None & info [ "cache-out" ] ~docv:"FILE" ~doc)

let list_cache_arg =
  let doc = "Print the recording-cache contents after the run." in
  Arg.(value & flag & info [ "l"; "list-cache" ] ~doc)

let report_arg =
  let doc =
    "Run with the observability plane on and write a versioned fleet report \
     (service counters, SLO p50/p90/p99 rollups, per-key latencies, memo \
     profiles) as JSON to $(docv). Render with grt-inspect --fleet."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Run with the observability plane on and write a Chrome trace-event \
     JSON timeline to $(docv): one track per client session plus the \
     service plane on tid 0. Load in Perfetto (ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let listing_row_json (r : Service.listing_row) =
  Json.Obj
    [
      ("key", Json.Str (Printf.sprintf "%016Lx" r.Service.row_key));
      ("label", Json.Str r.Service.row_label);
      ("resident", Json.Bool r.Service.row_resident);
      ("blob_bytes", Json.int r.Service.row_blob_bytes);
      ("hits", Json.int r.Service.row_hits);
      ("recordings", Json.int r.Service.row_recordings);
      ("evictions", Json.int r.Service.row_evictions);
    ]

let print_listing rows =
  Printf.printf "%-52s %8s %10s %6s %5s %6s\n" "key (net/SKU/runtime/mode)"
    "resident" "blob(B)" "hits" "rec" "evict";
  List.iter
    (fun (r : Service.listing_row) ->
      Printf.printf "%-52s %8s %10d %6d %5d %6d\n" r.Service.row_label
        (if r.Service.row_resident then "yes" else "-")
        r.Service.row_blob_bytes r.Service.row_hits r.Service.row_recordings
        r.Service.row_evictions)
    rows

let write_json path json =
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_string oc "\n";
  close_out oc

let wall_clock () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let run clients zipf cache_cap seed interarrival sequential json_file cache_out list_cache
    report_file trace_out =
  let options =
    {
      Service.default_fleet with
      Service.clients;
      zipf_s = zipf;
      mean_interarrival_s = interarrival;
      fleet_seed = Int64.of_int seed;
    }
  in
  let observe = report_file <> None || trace_out <> None in
  let row, svc =
    E.fleet ~options ~sequential ~observe ~cache_capacity:cache_cap ~wall:wall_clock ()
  in
  Printf.printf "fleet: %d clients, Zipf(%.2f) over %d NNs x %d SKUs (%s)\n"
    row.E.fleet_clients zipf
    (List.length options.Service.nets)
    (List.length options.Service.skus)
    row.E.fleet_label;
  Printf.printf "  recordings      %6d  (distinct keys %d, evictions %d)\n"
    row.E.fleet_recordings row.E.distinct_keys row.E.fleet_evictions;
  Printf.printf "  served          %6d  (%d resident hits + %d coalesced; %.1f%% hit rate)\n"
    (row.E.fleet_cache_hits + row.E.fleet_coalesced)
    row.E.fleet_cache_hits row.E.fleet_coalesced
    (100. *. row.E.fleet_hit_rate);
  Printf.printf "  failures        %6d\n" row.E.fleet_failures;
  Printf.printf "  throughput      %8.1f sessions/s wall (%.1fs wall, %.1fs virtual)\n"
    row.E.wall_sessions_per_s row.E.host_wall_s row.E.virtual_s;
  Printf.printf "  turnaround      %8.2fs mean, %.2fs p95\n" row.E.mean_turnaround_s
    row.E.p95_turnaround_s;
  Printf.printf "  sync traffic    %8.2f MB wire, %d blocking RTTs\n"
    row.E.fleet_sync_wire_mb row.E.fleet_blocking_rtts;
  Printf.printf "  cross-session   %6d spec-history hits, %d shared-store page hits\n"
    row.E.spec_cross_hits row.E.sync_cross_hits;
  if not sequential then
    Printf.printf "  scheduler       %6d yields, %d switches\n" row.E.fleet_yields
      row.E.fleet_switches;
  let listing = Service.cache_listing svc in
  if list_cache then begin
    Printf.printf "\ncache contents (%d keys):\n" (List.length listing);
    print_listing listing
  end;
  let cache_json = Json.Arr (List.map listing_row_json listing) in
  (match json_file with
  | Some path ->
      write_json path
        (Json.Obj [ ("fleet", E.fleet_row_json row); ("cache", cache_json) ]);
      Printf.printf "\nwrote %s\n" path
  | None -> ());
  (match cache_out with
  | Some path ->
      write_json path (Json.Obj [ ("cache", cache_json) ]);
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match report_file with
  | Some path ->
      let report =
        Grt.Report.of_fleet ~fleet:(E.fleet_row_json row) ~stats:(Service.stats svc)
          ~memo:(Grt_util.Memo_stats.to_json ())
          ~observation:(Service.observation svc) ()
      in
      write_json path report;
      Printf.printf "wrote %s\n" path
  | None -> ());
  (match trace_out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Grt_sim.Tracer.tracks_chrome_json (Service.fleet_tracks svc));
      output_string oc "\n";
      close_out oc;
      Printf.printf "wrote %s (load in ui.perfetto.dev)\n" path
  | None -> ());
  if row.E.fleet_failures > 0 then begin
    let ring = Service.service_trace svc in
    Format.printf "@.service post-mortem ring (%d failures, %d events retained):@."
      row.E.fleet_failures
      (Grt_sim.Trace.retained ring);
    List.iter
      (fun e -> Format.printf "  %a@." Grt_sim.Trace.pp_event e)
      (Grt_sim.Trace.all ring)
  end

let cmd =
  let doc = "drive the GR-T recording service with a Zipf client fleet" in
  let info = Cmd.info "grt-fleet" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const run $ clients_arg $ zipf_arg $ cache_cap_arg $ seed_arg $ interarrival_arg
      $ sequential_arg $ json_arg $ cache_out_arg $ list_cache_arg $ report_arg $ trace_out_arg)

let () = exit (Cmd.eval cmd)
