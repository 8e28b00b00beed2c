(* Quickstart: record an MNIST inference once with the cloud service, then
   replay it inside the client TEE on a fresh input.

     dune exec examples/quickstart.exe

   This is the paper's headline workflow (§3.1): the developer ships a
   hardware-neutral workload; the client TEE asks the cloud to dry-run the
   GPU stack against the client's own GPU; afterwards the TEE replays the
   signed recording locally, with no GPU stack and no network. *)

let () =
  let net = Grt_mlfw.Zoo.mnist in
  let sku = Grt_gpu.Sku.g71_mp8 in
  Printf.printf "Workload: %s inference (%d GPU jobs)\nClient GPU: %s\n\n" net.Grt_mlfw.Network.name
    (Grt_mlfw.Network.job_count net) sku.Grt_gpu.Sku.name;

  (* 1. Record once: the cloud dry-runs the GPU stack over WiFi while the
     client TEE executes the register accesses on the real GPU. *)
  Printf.printf "[1/3] recording over %s...\n%!"
    (Format.asprintf "%a" Grt_net.Profile.pp Grt_net.Profile.wifi);
  let outcome =
    Grt.Orchestrate.record ~profile:Grt_net.Profile.wifi ~mode:Grt.Mode.Ours_mds ~sku ~net
      ~seed:2026L ()
  in
  Printf.printf "      done in %.1f s (virtual), %d blocking round trips, %s recording\n\n"
    outcome.Grt.Orchestrate.total_s
    (Grt_sim.Metrics.get_int outcome.Grt.Orchestrate.counters Grt_sim.Metrics.Net_blocking_rtts)
    (Grt_util.Hexdump.size_to_string (Bytes.length outcome.Grt.Orchestrate.blob));

  (* 2. The app supplies model parameters and a fresh input inside the TEE —
     neither ever reached the cloud. *)
  let plan = Grt_mlfw.Network.expand net in
  let params = Grt_mlfw.Runner.weight_values plan ~seed:2026L in
  let input = Grt_mlfw.Runner.input_values plan ~seed:7L in
  Printf.printf "[2/3] injecting %d parameter tensors and a fresh 28x28 input in the TEE\n\n"
    (List.length params);

  (* 3. Replay: no cloud, no GPU stack — just the recording and the GPU. *)
  let ro =
    Grt.Orchestrate.replay_recording ~sku ~blob:outcome.Grt.Orchestrate.blob ~input ~params
      ~seed:1L ()
  in
  let out = ro.Grt.Orchestrate.r.Grt.Replayer.output in
  Printf.printf "[3/3] replayed in %.2f ms — class probabilities:\n"
    (ro.Grt.Orchestrate.r.Grt.Replayer.delay_s *. 1e3);
  Array.iteri (fun i p -> Printf.printf "      class %d: %5.1f%%\n" i (100. *. p)) out;
  let best = ref 0 in
  Array.iteri (fun i p -> if p > out.(!best) then best := i) out;
  Printf.printf "\npredicted class: %d\n" !best
