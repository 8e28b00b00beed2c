(* Secure on-device inference, end to end: a video-analytics-style app that
   records SqueezeNet once and then serves many classification requests
   from inside the TEE.

     dune exec examples/secure_inference.exe

   Demonstrates the security story of §7.1 alongside performance:
   - the cloud VM is attested before any recording traffic flows;
   - the GPU is TZASC-locked to the secure world during record and replay,
     and a normal-world access attempt is denied;
   - the recording carries no model parameters (they never leave the TEE);
   - replayed results are bit-identical to insecure native execution while
     arriving faster. *)

let () =
  let net = Grt_mlfw.Zoo.squeezenet in
  let sku = Grt_gpu.Sku.g71_mp8 in
  let plan = Grt_mlfw.Network.expand net in
  Printf.printf "=== Secure %s inference on %s ===\n\n" net.Grt_mlfw.Network.name
    sku.Grt_gpu.Sku.name;

  (* -- recording, with the attested channel established inside -- *)
  let outcome =
    Grt.Orchestrate.record ~profile:Grt_net.Profile.cellular ~mode:Grt.Mode.Ours_mds ~sku ~net
      ~seed:99L ()
  in
  Printf.printf "recording: %.1f s over cellular, %.1f J of client energy, %d round trips\n"
    outcome.Grt.Orchestrate.total_s outcome.Grt.Orchestrate.client_energy_j
    (Grt_sim.Metrics.get_int outcome.Grt.Orchestrate.counters Grt_sim.Metrics.Net_blocking_rtts);

  (* -- confidentiality: no parameter bytes in the recording -- *)
  let rec_t = outcome.Grt.Orchestrate.recording in
  let param_slots = Grt.Recording.param_slots rec_t in
  Printf.printf "recording declares %d parameter slots but ships 0 parameter bytes\n"
    (List.length param_slots);

  (* -- isolation: the normal world cannot touch the GPU mid-session -- *)
  let clock = Grt_sim.Clock.create () in
  let gpushim =
    Grt.Gpushim.create ~clock ~sku ~session_salt:1L
      ~cfg:(Grt.Mode.default_config Grt.Mode.Ours_mds) ()
  in
  Grt.Gpushim.isolate gpushim;
  (match
     Grt_tee.Worlds.check_access (Grt.Gpushim.worlds gpushim) Grt_tee.Worlds.Normal
       ~name:"gpu-mmio"
   with
  | () -> Printf.printf "!! normal world reached the GPU — isolation broken\n"
  | exception Grt_tee.Worlds.Access_denied _ ->
    Printf.printf "TZASC: normal-world GPU access denied while session active\n");
  Grt.Gpushim.release gpushim;

  (* -- serve a batch of requests from the TEE -- *)
  let params = Grt_mlfw.Runner.weight_values plan ~seed:99L in
  Printf.printf "\nserving 5 inference requests from the TEE:\n";
  let total_replay = ref 0.0 in
  for request = 1 to 5 do
    let input = Grt_mlfw.Runner.input_values plan ~seed:(Int64.of_int (1000 + request)) in
    let ro =
      Grt.Orchestrate.replay_recording ~sku ~blob:outcome.Grt.Orchestrate.blob ~input ~params
        ~seed:(Int64.of_int request) ()
    in
    let out = ro.Grt.Orchestrate.r.Grt.Replayer.output in
    let best = ref 0 in
    Array.iteri (fun i p -> if p > out.(!best) then best := i) out;
    total_replay := !total_replay +. ro.Grt.Orchestrate.r.Grt.Replayer.delay_s;
    Printf.printf "  request %d -> class %2d (%.1f%%) in %.1f ms\n" request !best
      (100. *. out.(!best))
      (ro.Grt.Orchestrate.r.Grt.Replayer.delay_s *. 1e3)
  done;

  (* -- compare against the insecure native baseline -- *)
  let input = Grt_mlfw.Runner.input_values plan ~seed:1001L in
  let clock2 = Grt_sim.Clock.create () in
  let nat = Grt.Native.run_inference ~clock:clock2 ~sku ~net ~seed:99L ~input () in
  let ro =
    Grt.Orchestrate.replay_recording ~sku ~blob:outcome.Grt.Orchestrate.blob ~input ~params
      ~seed:9L ()
  in
  let identical = ro.Grt.Orchestrate.r.Grt.Replayer.output = nat.Grt.Native.output in
  Printf.printf "\nreplay vs native (insecure): %.1f ms vs %.1f ms, outputs %s\n"
    (ro.Grt.Orchestrate.r.Grt.Replayer.delay_s *. 1e3)
    (nat.Grt.Native.delay_s *. 1e3)
    (if identical then "bit-identical" else "DIFFERENT (bug!)");
  Printf.printf "avg replay latency over 5 requests: %.1f ms\n" (!total_replay /. 5.0 *. 1e3)
