(* grt-replay: verify and replay a saved recording inside the (simulated)
   client TEE, injecting a fresh input and the model parameters.

     dune exec bin/grt_replay.exe -- -r mnist.grt --sku "Mali-G71 MP8"

   --compiled switches to the replay-compiler fast path (compile once,
   stream-verify chunks during execution); --batch N replays N fresh inputs
   through one compiled program and session; --attest emits a signed replay
   token binding the recording's Merkle root, the SKU and the entry count. *)

open Cmdliner

let recording_arg =
  let doc = "Signed recording file produced by grt-record." in
  Arg.(required & opt (some string) None & info [ "r"; "recording" ] ~docv:"FILE" ~doc)

let sku_arg =
  let doc = "GPU model of this client (must match the recording)." in
  Arg.(value & opt string "Mali-G71 MP8" & info [ "s"; "sku" ] ~docv:"SKU" ~doc)

let input_seed_arg =
  let doc = "Seed for the synthetic fresh input tensor." in
  Arg.(value & opt int 7 & info [ "input-seed" ] ~docv:"SEED" ~doc)

let param_seed_arg =
  let doc =
    "Seed for the model parameters (use the seed the workload was trained/recorded with \
     natively to compare outputs)."
  in
  Arg.(value & opt int 42 & info [ "param-seed" ] ~docv:"SEED" ~doc)

let top_arg =
  let doc = "Print the top $(docv) classes." in
  Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc)

let compiled_arg =
  let doc =
    "Use the compiled fast path: lower the recording to a replay program once and \
     stream-verify its chunks during execution."
  in
  Arg.(value & flag & info [ "compiled" ] ~doc)

let batch_arg =
  let doc =
    "Replay $(docv) fresh inputs (seeds input-seed, input-seed+1, ...) through one \
     session. Implies --compiled for N > 1."
  in
  Arg.(value & opt int 1 & info [ "batch" ] ~docv:"N" ~doc)

let attest_arg =
  let doc =
    "After a successful replay, emit a signed replay token over the recording's Merkle \
     root, the SKU and the applied entry count, and verify it."
  in
  Arg.(value & flag & info [ "attest" ] ~doc)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let print_top ~top out =
  let ranked =
    List.sort
      (fun (_, a) (_, b) -> compare b a)
      (Array.to_list (Array.mapi (fun i v -> (i, v)) out))
  in
  List.iteri
    (fun rank (cls, p) ->
      if rank < top then Printf.printf "  #%d class %2d  %5.1f%%\n" (rank + 1) cls (100. *. p))
    ranked

let attest_token ~sku ~root ~entries =
  let nonce = 0x6e6f6e63655f31L in
  let token =
    Grt_tee.Attestation.make_replay_token ~signing_key:Grt.Orchestrate.client_attestation_key
      ~root ~gpu_id:sku.Grt_gpu.Sku.gpu_id ~entries ~nonce
  in
  let verdict =
    match
      Grt_tee.Attestation.verify_replay_token
        ~verification_key:Grt.Orchestrate.client_attestation_key ~root
        ~gpu_id:sku.Grt_gpu.Sku.gpu_id ~nonce token
    with
    | Ok () -> "verifies"
    | Error e -> "INVALID: " ^ e
  in
  Printf.printf "replay token: root=%016Lx gpu=%Lx entries=%d sig=%016Lx (%s)\n"
    token.Grt_tee.Attestation.rt_root token.Grt_tee.Attestation.rt_gpu_id
    token.Grt_tee.Attestation.rt_entries token.Grt_tee.Attestation.rt_signature verdict

let run recording_path sku_name input_seed param_seed top compiled batch attest =
  match Grt_gpu.Sku.find sku_name with
  | None -> `Error (false, "unknown SKU " ^ sku_name)
  | Some sku -> (
    let blob = try read_file recording_path with Sys_error e -> failwith e in
    (* Peek at the workload name to regenerate inputs/params of the right
       shape. (Signature verification happens again inside the replayer.) *)
    match Grt.Recording.verify_and_parse ~key:Grt.Orchestrate.cloud_signing_key blob with
    | Error e -> `Error (false, "recording rejected: " ^ e)
    | Ok rec_t -> (
      match Grt_mlfw.Zoo.find rec_t.Grt.Recording.workload with
      | None -> `Error (false, "recording is for unknown workload " ^ rec_t.Grt.Recording.workload)
      | Some net -> (
        let plan = Grt_mlfw.Network.expand net in
        let params = Grt_mlfw.Runner.weight_values plan ~seed:(Int64.of_int param_seed) in
        let batch = max 1 batch in
        let compiled = compiled || batch > 1 in
        Printf.printf "replaying %s (%d entries) on %s%s...\n%!" rec_t.Grt.Recording.workload
          (Array.length rec_t.Grt.Recording.entries)
          sku_name
          (if compiled then Printf.sprintf " [compiled, batch %d]" batch else "");
        ignore net;
        match
          if compiled then begin
            let prog = Grt.Orchestrate.compile_recording ~blob () in
            let st = Grt.Replay_prog.stats prog in
            Printf.printf
              "compiled: %d ops, %d fused writes, %d static pages, %d dynamic loads\n%!"
              st.Grt.Replay_prog.ops st.Grt.Replay_prog.fused_writes
              st.Grt.Replay_prog.static_pages st.Grt.Replay_prog.dynamic_loads;
            let g, _clock, _energy =
              Grt.Orchestrate.replay_gpushim ~sku ~seed:(Int64.of_int input_seed) ()
            in
            let last = ref None in
            let t0 = Monotonic_clock.now () in
            for i = 0 to batch - 1 do
              let seed = Int64.of_int (input_seed + i) in
              let input = Grt_mlfw.Runner.input_values plan ~seed in
              let r = Grt.Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
              last := Some r
            done;
            let host_s = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9 in
            if batch > 1 then
              Printf.printf "batch: %d replays in %.1f ms host time (%.0f replays/s)\n" batch
                (1e3 *. host_s)
                (float_of_int batch /. host_s);
            (Option.get !last, Some (Grt.Replay_prog.root prog))
          end
          else begin
            let input = Grt_mlfw.Runner.input_values plan ~seed:(Int64.of_int input_seed) in
            let ro =
              Grt.Orchestrate.replay_recording ~sku ~blob ~input ~params
                ~seed:(Int64.of_int input_seed) ()
            in
            (ro.Grt.Orchestrate.r, None)
          end
        with
        | exception Grt.Replayer.Rejected msg -> `Error (false, "replay rejected: " ^ msg)
        | exception Grt.Replayer.Divergence { kind; index; reg; expected; got } ->
          `Error
            ( false,
              Printf.sprintf
                "replay diverged at entry %d (reg %#x, %s): expected %Ld, GPU said %Ld" index reg
                (Grt.Replayer.divergence_kind_name kind)
                expected got )
        | r, root ->
          Printf.printf
            "done in %.2f ms: %d entries applied, %d reads verified, %d nondeterministic \
             skipped\n"
            (r.Grt.Replayer.delay_s *. 1e3)
            r.Grt.Replayer.entries_applied r.Grt.Replayer.reads_verified
            r.Grt.Replayer.reads_skipped_nondet;
          print_top ~top r.Grt.Replayer.output;
          if attest then begin
            let root =
              match root with
              | Some root -> root
              | None -> (
                (* Interpreted path: recover the root from the signed header. *)
                match
                  Grt.Recording.parse_signed ~key:Grt.Orchestrate.cloud_signing_key blob
                with
                | Ok v -> v.Grt.Recording.vroot
                | Error _ -> 0L)
            in
            attest_token ~sku ~root ~entries:r.Grt.Replayer.entries_applied
          end;
          `Ok ())))

let cmd =
  let doc = "replay a GR-T recording inside the client TEE (simulated)" in
  let info = Cmd.info "grt-replay" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ recording_arg $ sku_arg $ input_seed_arg $ param_seed_arg $ top_arg
       $ compiled_arg $ batch_arg $ attest_arg))

let () = exit (Cmd.eval cmd)
