(* grt-record: run a GR-T recording session and save the signed recording.

     dune exec bin/grt_record.exe -- --net MNIST --mode OursMDS \
         --profile wifi --sku "Mali-G71 MP8" -o mnist.grt
*)

open Cmdliner

let net_arg =
  let doc = "Workload: MNIST, AlexNet, MobileNet, SqueezeNet, ResNet12, VGG16 or GatedNet." in
  Arg.(value & opt string "MNIST" & info [ "n"; "net" ] ~docv:"NET" ~doc)

let mode_arg =
  let doc = "Recorder configuration: Naive, OursM, OursMD or OursMDS." in
  Arg.(value & opt string "OursMDS" & info [ "m"; "mode" ] ~docv:"MODE" ~doc)

let profile_arg =
  let doc = "Network conditions: wifi, cellular or lan." in
  Arg.(value & opt string "wifi" & info [ "p"; "profile" ] ~docv:"PROFILE" ~doc)

let sku_arg =
  let doc = "Client GPU model (see --list-skus)." in
  Arg.(value & opt string "Mali-G71 MP8" & info [ "s"; "sku" ] ~docv:"SKU" ~doc)

let seed_arg =
  let doc = "Deterministic session seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let drop_prob_arg =
  let doc =
    "Message drop probability in [0,1) applied to the chosen profile; lost exchanges are \
     retransmitted with exponential backoff. The recording stays bit-identical, only the \
     delay and energy change."
  in
  Arg.(value & opt float 0.0 & info [ "drop-prob" ] ~docv:"P" ~doc)

let window_arg =
  let doc =
    "Link sliding-window size: up to $(docv) exchanges in flight with go-back-N \
     retransmission. 1 (the default) is stop-and-wait. The recording stays bit-identical, \
     only the delay and energy change."
  in
  Arg.(value & opt int 1 & info [ "w"; "window" ] ~docv:"N" ~doc)

let max_inflight_arg =
  let doc =
    "Cap on speculative commits outstanding at once; dispatching past the cap validates the \
     oldest first. 0 (the default) means unbounded."
  in
  Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N" ~doc)

let memsync_dedup_arg =
  let doc =
    "Content-addressed memsync dedup: pages whose body the peer already holds ship as an \
     8-byte hash reference. Changes the recording's page-record format (still replayable on \
     this build); off by default to keep recordings byte-identical with older builds."
  in
  Arg.(value & flag & info [ "memsync-dedup" ] ~doc)

let memsync_adaptive_arg =
  let doc =
    "Per-page adaptive memsync encoding: each shipped page uses the cheapest of raw, \
     range-coded raw, delta, range-coded delta or (with --memsync-dedup) a hash reference, \
     instead of unconditional delta+range-coding."
  in
  Arg.(value & flag & info [ "memsync-adaptive" ] ~doc)

let out_arg =
  let doc = "Write the signed recording to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Record with span tracing on and write Chrome trace-event JSON to $(docv) (load it in \
     Perfetto or chrome://tracing). Tracing observes the virtual clock without moving it, so \
     the recording, counters and energy are identical to an untraced run."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc =
    "Write a JSON session report (summary, counters, latency histograms, per-phase time \
     attribution) to $(docv). Implies the same zero-cost observation as --trace-out."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let trace_capacity_arg =
  let doc =
    "Capacity of the diagnostic event ring dumped on failure (and exported to the report); \
     older events are evicted past it."
  in
  Arg.(value & opt int 4096 & info [ "trace-capacity" ] ~docv:"N" ~doc)

let list_skus_arg =
  let doc = "List known GPU SKUs and exit." in
  Arg.(value & flag & info [ "list-skus" ] ~doc)

let stats_arg =
  let doc = "Print the full counter set after recording." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let profile_of_name = function
  | "wifi" -> Some Grt_net.Profile.wifi
  | "cellular" -> Some Grt_net.Profile.cellular
  | "lan" -> Some Grt_net.Profile.lan
  | _ -> None

let write_text path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let run net_name mode_name profile_name sku_name seed drop_prob window max_inflight
    memsync_dedup memsync_adaptive out trace_out report_out trace_capacity list_skus stats =
  if list_skus then begin
    List.iter
      (fun s -> Format.printf "%a@." Grt_gpu.Sku.pp s)
      Grt_gpu.Sku.all;
    `Ok ()
  end
  else
    match
      ( Grt_mlfw.Zoo.find net_name,
        Grt.Mode.of_name mode_name,
        profile_of_name profile_name,
        Grt_gpu.Sku.find sku_name )
    with
    | None, _, _, _ -> `Error (false, "unknown network " ^ net_name)
    | _, None, _, _ -> `Error (false, "unknown mode " ^ mode_name)
    | _, _, None, _ -> `Error (false, "unknown profile " ^ profile_name)
    | _, _, _, None -> `Error (false, "unknown SKU " ^ sku_name ^ " (try --list-skus)")
    | Some net, Some mode, Some profile, Some sku ->
      if drop_prob < 0. || drop_prob >= 1. then `Error (false, "--drop-prob must be in [0,1)")
      else if window < 1 then `Error (false, "--window must be >= 1")
      else if max_inflight < 0 then `Error (false, "--max-inflight must be >= 0")
      else if trace_capacity < 1 then `Error (false, "--trace-capacity must be >= 1")
      else begin
      let profile =
        if drop_prob > 0. then Grt_net.Profile.degrade ~drop_prob profile else profile
      in
      Printf.printf "recording %s (%d GPU jobs) on %s, %s over %s...\n%!" net_name
        (Grt_mlfw.Network.job_count net) sku_name (Grt.Mode.name mode) profile.Grt_net.Profile.name;
      let config =
        let default = Grt.Mode.default_config mode in
        let cfg =
          {
            default with
            Grt.Mode.max_inflight = (if max_inflight > 0 then max_inflight else 0);
            memsync_dedup;
            memsync_adaptive;
          }
        in
        if cfg = default then None else Some cfg
      in
      let observe = trace_out <> None || report_out <> None in
      let o =
        Grt.Orchestrate.record ?config ~window ~trace_capacity ~observe ~profile ~mode ~sku ~net
          ~seed:(Int64.of_int seed) ()
      in
      Printf.printf
        "done.\n\
        \  recording delay: %.1f s (virtual)\n\
        \  blocking RTTs:   %d\n\
        \  mem sync:        %s on the wire (%s raw)\n\
        \  commits:         %d (%d speculated)\n\
        \  client energy:   %.1f J\n\
        \  recording size:  %s (%d entries)\n"
        o.Grt.Orchestrate.total_s o.Grt.Orchestrate.blocking_rtts
        (Grt_util.Hexdump.size_to_string o.Grt.Orchestrate.sync_wire_bytes)
        (Grt_util.Hexdump.size_to_string o.Grt.Orchestrate.sync_raw_bytes)
        o.Grt.Orchestrate.commits_total o.Grt.Orchestrate.commits_speculated
        o.Grt.Orchestrate.client_energy_j
        (Grt_util.Hexdump.size_to_string (Bytes.length o.Grt.Orchestrate.blob))
        (Array.length o.Grt.Orchestrate.recording.Grt.Recording.entries);
      if drop_prob > 0. then
        Printf.printf "  lossy link:      %d retransmits, %d link-down recoveries\n"
          o.Grt.Orchestrate.retransmits o.Grt.Orchestrate.link_downs;
      if window > 1 then
        Printf.printf "  window:          %d (%d window stalls, %d go-back-N resends)\n" window
          (Grt_sim.Metrics.get_int o.Grt.Orchestrate.counters Grt_sim.Metrics.Net_window_stalls)
          (Grt_sim.Metrics.get_int o.Grt.Orchestrate.counters Grt_sim.Metrics.Net_gbn_retransmits);
      (match out with
      | Some path ->
        let oc = open_out_bin path in
        output_bytes oc o.Grt.Orchestrate.blob;
        close_out oc;
        Printf.printf "  wrote %s\n" path
      | None -> ());
      (match (trace_out, o.Grt.Orchestrate.tracer) with
      | Some path, Some tracer ->
        write_text path (Grt_sim.Tracer.to_chrome_json tracer);
        Printf.printf "  wrote trace %s (%d spans)\n" path (Grt_sim.Tracer.span_count tracer)
      | _ -> ());
      (match report_out with
      | Some path ->
        let report =
          Grt.Report.of_outcome ~workload:net_name ~mode:(Grt.Mode.name mode)
            ~profile:profile.Grt_net.Profile.name ~seed:(Int64.of_int seed) o
        in
        write_text path (Grt_util.Json.to_string report ^ "\n");
        Printf.printf "  wrote report %s\n" path
      | None -> ());
      if stats then Format.printf "%a" Grt_sim.Metrics.pp o.Grt.Orchestrate.counters;
      `Ok ()
      end

let cmd =
  let doc = "record a GPU workload with the GR-T cloud recording service (simulated)" in
  let info = Cmd.info "grt-record" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ net_arg $ mode_arg $ profile_arg $ sku_arg $ seed_arg $ drop_prob_arg
       $ window_arg $ max_inflight_arg $ memsync_dedup_arg $ memsync_adaptive_arg $ out_arg
       $ trace_out_arg $ report_arg $ trace_capacity_arg $ list_skus_arg $ stats_arg))

let () = exit (Cmd.eval cmd)
