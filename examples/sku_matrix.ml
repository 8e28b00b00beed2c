(* The SKU problem (§2.4) made concrete: one hardware-neutral workload,
   several client GPU models.

     dune exec examples/sku_matrix.exe

   For each SKU in the catalog, the cloud service dry-runs the same MNIST
   workload against that client's GPU; the JIT emits SKU-specific shaders
   (different tiling, different binaries), the recording binds to the SKU
   identity, and replaying a recording on any *other* SKU is rejected —
   which is precisely why the paper's online recording architecture is
   needed: nobody can pre-record for 80 SKUs they do not own. *)

let () =
  let net = Grt_mlfw.Zoo.mnist in
  let plan = Grt_mlfw.Network.expand net in
  let input = Grt_mlfw.Runner.input_values plan ~seed:5L in
  let params = Grt_mlfw.Runner.weight_values plan ~seed:5L in

  Printf.printf "recording %s on every SKU in the catalog:\n\n" net.Grt_mlfw.Network.name;
  Printf.printf "%-16s %10s %10s %12s %10s\n" "SKU" "record(s)" "RTTs" "recording" "replay(ms)";
  let recordings =
    List.map
      (fun sku ->
        let o =
          Grt.Orchestrate.record ~profile:Grt_net.Profile.wifi ~mode:Grt.Mode.Ours_mds ~sku ~net
            ~seed:5L ()
        in
        let ro =
          Grt.Orchestrate.replay_recording ~sku ~blob:o.Grt.Orchestrate.blob ~input ~params
            ~seed:1L ()
        in
        Printf.printf "%-16s %10.1f %10d %12s %10.2f\n" sku.Grt_gpu.Sku.name
          o.Grt.Orchestrate.total_s
          (Grt_sim.Metrics.get_int o.Grt.Orchestrate.counters Grt_sim.Metrics.Net_blocking_rtts)
          (Grt_util.Hexdump.size_to_string (Bytes.length o.Grt.Orchestrate.blob))
          (ro.Grt.Orchestrate.r.Grt.Replayer.delay_s *. 1e3);
        (sku, o.Grt.Orchestrate.blob))
      Grt_gpu.Sku.all
  in

  (* Shader binaries really differ per SKU. *)
  let bin sku = Grt_gpu.Shader.compile ~sku ~op:Grt_gpu.Shader.Conv2d in
  Printf.printf "\nconv2d shader: %d bytes on G31 MP2, %d bytes on G76 MP12 (tile %d vs %d)\n"
    (Bytes.length (bin Grt_gpu.Sku.g31_mp2))
    (Bytes.length (bin Grt_gpu.Sku.g76_mp12))
    (Grt_gpu.Shader.tile_size Grt_gpu.Sku.g31_mp2)
    (Grt_gpu.Shader.tile_size Grt_gpu.Sku.g76_mp12);

  (* Cross-replay matrix: every off-diagonal cell must be rejected. *)
  let short_name sku =
    match String.split_on_char ' ' sku.Grt_gpu.Sku.name with
    | full :: _ -> (match String.split_on_char '-' full with [ _; g ] -> g | _ -> full)
    | [] -> sku.Grt_gpu.Sku.name
  in
  Printf.printf "\ncross-SKU replay matrix (rows: recorded on, cols: replayed on):\n\n%-16s" "";
  List.iter (fun s -> Printf.printf " %-9s" (short_name s)) Grt_gpu.Sku.all;
  print_newline ();
  List.iter
    (fun (rec_sku, blob) ->
      Printf.printf "%-16s" rec_sku.Grt_gpu.Sku.name;
      List.iter
        (fun replay_sku ->
          let cell =
            match
              Grt.Orchestrate.replay_recording ~sku:replay_sku ~blob ~input ~params ~seed:2L ()
            with
            | _ -> "ok"
            | exception Grt.Replayer.Rejected _ -> "rejected"
            | exception Grt.Replayer.Divergence _ -> "diverged"
          in
          Printf.printf " %-9s" cell)
        Grt_gpu.Sku.all;
      print_newline ())
    recordings;
  Printf.printf
    "\nonly the diagonal replays: recordings are bound to the exact GPU model (§2.4).\n"
