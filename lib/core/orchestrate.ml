module Link = Grt_net.Link
module Sku = Grt_gpu.Sku
module Network = Grt_mlfw.Network
module Metrics = Grt_sim.Metrics
module Tracer = Grt_sim.Tracer
module Ctx = Session_ctx

let cloud_signing_key : Grt_tee.Crypto.key = "grt-cloud-recording-service-v1"

let cloud_measurement = Cloudvm.default_image.Cloudvm.measurement

type record_outcome = {
  blob : bytes;
  recording : Recording.t;
  total_s : float;
  client_energy_j : float;
  rollbacks : int;
  rollback_s : float;
  counters : Grt_sim.Metrics.t;
  segments : bytes list;
      (* per-layer recording segments when recorded with [`Per_layer]
         granularity (Figure 2); empty otherwise *)
  tracer : Grt_sim.Tracer.t option;
}

(* Misprediction recovery (§4.2): both parties restart and replay the
   validated log locally — no network round trips. The cloud side dominates:
   driver reload plus JIT recompilation of the workload's kernels. *)
let rollback_cost_s ~entries_so_far ~jit_kernels =
  let driver_reload = 0.5 in
  let jit = float_of_int jit_kernels *. Int64.to_float Grt_sim.Costs.jit_compile_ns_per_kernel *. 1e-9 in
  (* Re-preparing the GPU jobs covered by the validated log dominates: the
     runtime re-emits and re-optimizes each one while fast-forwarding. *)
  let recompile = float_of_int entries_so_far *. 7.5e-4 in
  driver_reload +. jit +. recompile

(* Mispredictions can surface wrapped in [Fun.Finally_raised] when the
   validating drain runs inside a cleanup handler (hot-function exit). *)
let rec mispredict_prefix = function
  | Drivershim.Mispredict { valid_log; _ } -> Some valid_log
  | Fun.Finally_raised e -> mispredict_prefix e
  | _ -> None

(* A [Link_down] can likewise surface through a cleanup handler. *)
let rec is_link_down = function
  | Link.Link_down _ -> true
  | Fun.Finally_raised e -> is_link_down e
  | _ -> false

(* ---- the recording pipeline: establish → boot → attempt loop →
   finalize/sign, all sharing one Session_ctx ---- *)

(* Attested channel establishment (§7.1): one-time handshake cost. *)
let establish (ctx : Ctx.t) =
  Tracer.span_opt ctx.tracer ~cat:Tracer.Establish ~name:"establish" @@ fun () ->
  let channel =
    match
      Channel.establish ~link:ctx.link ~verification_key:cloud_signing_key
        ~vm_signing_key:cloud_signing_key ~vm_measurement:cloud_measurement
        ~expected:cloud_measurement
        ~nonce:(Grt_util.Hashing.combine ctx.seed 0x6e6f6e6365L)
    with
    | Ok c -> c
    | Error e -> failwith ("attestation failed: " ^ e)
  in
  ignore (Channel.session_key channel)

(* Boot the recording VM: the image picks the device tree (and thus the
   driver binding) matching the client's attested GPU (§6). *)
let boot (ctx : Ctx.t) =
  Tracer.span_opt ctx.tracer ~cat:Tracer.Boot ~name:"boot" @@ fun () ->
  let vm =
    match Cloudvm.boot Cloudvm.default_image ~client_gpu_id:ctx.sku.Sku.gpu_id with
    | Ok vm -> vm
    | Error e -> failwith (Format.asprintf "cloud VM boot failed: %a" Cloudvm.pp_boot_error e)
  in
  (match Cloudvm.begin_session vm ~client:(Printf.sprintf "client-%Lx" ctx.seed) with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "cloud VM refused session: %a" Cloudvm.pp_boot_error e));
  vm

(* The dry-run attempt loop: record until the workload completes, rolling
   both parties back onto the validated log prefix after a misprediction
   (§4.2) or a link outage. *)
let attempt_loop (ctx : Ctx.t) ~devicetree =
  let rec attempt n prefix =
    if n > 8 then failwith "recording failed: too many rollbacks";
    let gpushim =
      Gpushim.create ~clock:ctx.clock ~sku:ctx.sku ~energy:ctx.energy ~metrics:ctx.metrics
        ~session_salt:(Ctx.session_salt ctx) ~cfg:ctx.cfg ()
    in
    Gpushim.isolate gpushim;
    let cloud_mem = Grt_gpu.Mem.create () in
    let shim =
      Drivershim.create ~cfg:ctx.cfg ~link:ctx.link ~gpushim ~cloud_mem ~metrics:ctx.metrics
        ~trace:ctx.trace ?tracer:ctx.tracer ~history:ctx.history
        ?sync_store:ctx.sync_store ~wire_overhead:Channel.wire_overhead
        ~replay_prefix:prefix ()
    in
    (match ctx.inject_fault_after with
    | Some k ->
      Drivershim.inject_fault_after shim k;
      ctx.inject_fault_after <- None
    | None -> ());
    let on_region (r : Grt_runtime.Session.region) =
      let mr =
        {
          Memsync.name = r.name;
          meta = Grt_runtime.Session.usage_is_metastate r.usage;
          va = r.va;
          pa = r.pa;
          model_bytes = r.model_bytes;
          actual_bytes = r.actual_bytes;
        }
      in
      Memsync.register_region (Drivershim.downlink shim) mr;
      Memsync.register_region (Gpushim.uplink gpushim) mr
    in
    let drv =
      Grt_driver.Kbase.create ~backend:(Drivershim.backend shim) ~mem:cloud_mem
        ~coherency_ace:devicetree.Cloudvm.coherency_ace
    in
    try
      Grt_driver.Kbase.init drv;
      let session = Grt_runtime.Session.create ~drv ~as_idx:1 ~clock:ctx.clock ~on_region () in
      (* Dry run: no weights, no input — the cloud never sees them (§2.3). *)
      let runner =
        Grt_mlfw.Runner.setup ~session ~plan:(Ctx.plan ctx) ~seed:ctx.seed ~load_weights:false
      in
      (match ctx.granularity with
      | `Monolithic -> Grt_mlfw.Runner.run runner
      | `Per_layer ->
        Grt_mlfw.Runner.run
          ~between_layers:(fun ~prev:_ ~next:_ -> Drivershim.mark_segment shim)
          runner);
      Grt_driver.Kbase.shutdown drv;
      Drivershim.finalize shim;
      (gpushim, shim, session, runner)
    with
    | e when mispredict_prefix e <> None ->
      let valid_log = Option.get (mispredict_prefix e) in
      (* Both parties restart and fast-forward through the validated log
         locally (§4.2). The dominant cost — driver reload and GPU job
         re-preparation on the cloud — is charged here; the log replay
         itself advances the clock as it runs in the next attempt. *)
      rollback n gpushim ~cause:"mispredict" valid_log
    | e when is_link_down e ->
      (* The ARQ gave up mid-session. Recovery mirrors a misprediction:
         restart from the longest validated log prefix and fast-forward
         locally while the channel re-establishes. Responses to commits
         still in flight were never validated, so they are replayed live. *)
      let valid_log = Drivershim.validated_prefix shim in
      Metrics.add ctx.metrics Metrics.Recovery_link_downs 1;
      rollback n gpushim ~cause:"link_down" valid_log
  and rollback n gpushim ~cause valid_log =
    Tracer.span_opt ctx.tracer ~cat:Tracer.Rollback_recovery ~args:[ ("cause", cause) ]
      ~name:"rollback" (fun () ->
        Metrics.observe ctx.metrics Grt_sim.Hist.Rollback_depth (List.length valid_log);
        Ctx.charge_rollback ctx
          (rollback_cost_s ~entries_so_far:(List.length valid_log) ~jit_kernels:10));
    Gpushim.release gpushim;
    attempt (n + 1) valid_log
  in
  attempt 0 []

(* Assemble and sign the recording; build the slot binding table; ship the
   blob to the client and account the stats of the whole session. *)
let client_accepts = function
  | Ok () -> ()
  | Error e -> failwith ("client rejected recording: " ^ e)

let finalize_and_sign (ctx : Ctx.t) ~vm ~gpushim ~shim ~runner =
  let plan = Ctx.plan ctx in
  let slot_of_region kind name =
    let r = Grt_mlfw.Runner.region runner name in
    {
      Recording.slot_name = name;
      kind;
      va = r.Grt_runtime.Session.va;
      pa = r.Grt_runtime.Session.pa;
      actual_bytes = r.Grt_runtime.Session.actual_bytes;
      model_bytes = r.Grt_runtime.Session.model_bytes;
    }
  in
  let slots =
    slot_of_region `Input plan.Network.input_buffer
    :: slot_of_region `Output plan.Network.output_buffer
    :: List.map (slot_of_region `Param) plan.Network.weight_buffers
  in
  let recording =
    {
      Recording.workload = ctx.net.Network.name;
      gpu_id = ctx.sku.Sku.gpu_id;
      entries = Array.of_list (Drivershim.entries shim);
      slots;
    }
  in
  (* Per-layer granularity (Figure 2): cut the log at the layer marks and
     sign each segment as its own recording, with its own slot table. *)
  let segments =
    match ctx.granularity with
    | `Monolithic -> []
    | `Per_layer ->
      let entries = recording.Recording.entries in
      let bounds = (0 :: Drivershim.segment_marks shim) @ [ Array.length entries ] in
      let rec pairs = function a :: (b :: _ as rest) -> (a, b) :: pairs rest | _ -> [] in
      let weight_for_layer layer suffix =
        let name = Printf.sprintf "%s.%02d" suffix layer in
        if List.mem name plan.Network.weight_buffers then [ slot_of_region `Param name ] else []
      in
      List.mapi
        (fun i (lo, hi) ->
          (* Segment i covers layer i of the plan. *)
          let jobs_of_layer =
            List.filter (fun (j : Network.job_spec) -> j.Network.layer = i) plan.Network.jobs
          in
          let input_name =
            match jobs_of_layer with j :: _ -> j.Network.input | [] -> plan.Network.input_buffer
          in
          let output_name =
            match jobs_of_layer with j :: _ -> j.Network.output | [] -> plan.Network.output_buffer
          in
          let seg =
            {
              Recording.workload = Printf.sprintf "%s/layer%02d" ctx.net.Network.name i;
              gpu_id = ctx.sku.Sku.gpu_id;
              entries = Array.sub entries lo (hi - lo);
              slots =
                ({ (slot_of_region `Input input_name) with Recording.kind = `Input }
                :: { (slot_of_region `Output output_name) with Recording.kind = `Output }
                :: (weight_for_layer i "w" @ weight_for_layer i "b"));
            }
          in
          Recording.sign ~key:cloud_signing_key seg)
        (pairs bounds)
  in
  let blob = Recording.sign ~key:cloud_signing_key recording in
  (* The client downloads and verifies the recording. *)
  Link.one_way_to_client ctx.link ~bytes:(Bytes.length blob);
  client_accepts (Recording.verify ~key:cloud_signing_key blob);
  Gpushim.release gpushim;
  Cloudvm.end_session vm;
  {
    blob;
    recording;
    total_s = Grt_sim.Clock.now_s ctx.clock;
    client_energy_j = Grt_sim.Energy.total_j ctx.energy;
    rollbacks = ctx.rollbacks;
    rollback_s = ctx.rollback_s;
    counters = ctx.metrics;
    segments;
    tracer = ctx.tracer;
  }

(* Failure post-mortem: the whole retained event ring, grouped by topic and
   oldest-first within each, so the sequence that led to the failure reads
   top to bottom. (The old dump printed a newest-first slice of 32, which
   interleaved topics and cut off exactly the establishment-era events that
   explain mispredict storms.) *)
let failure_dump (ctx : Ctx.t) =
  let tr = ctx.trace in
  let retained = Grt_sim.Trace.retained tr in
  if retained = 0 then ""
  else begin
    let b = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer b in
    let evicted = Grt_sim.Trace.count tr - retained in
    Format.fprintf ppf "--- recording failed; %d recorder event(s)%s ---@." retained
      (if evicted > 0 then
         Printf.sprintf " (%d older evicted; raise --trace-capacity)" evicted
       else "");
    List.iter
      (fun topic ->
        Format.fprintf ppf "[%s]@." topic;
        List.iter
          (fun e -> Format.fprintf ppf "  %a@." Grt_sim.Trace.pp_event e)
          (Grt_sim.Trace.all ~topic tr))
      (Grt_sim.Trace.topics tr);
    Format.fprintf ppf "--- end of trace ---@.";
    Buffer.contents b
  end

let dump_trace ctx =
  prerr_string (failure_dump ctx);
  flush stderr

(* Re-entrant per-session pipeline state: the stage reached so far plus the
   artifacts later stages need, so a session is a value that can be stepped
   rather than a call stack. *)
module Pipeline = struct
  type stage =
    | Created
    | Established
    | Booted of Cloudvm.t
    | Attempted of {
        vm : Cloudvm.t;
        gpushim : Gpushim.t;
        shim : Drivershim.t;
        runner : Grt_mlfw.Runner.t;
      }
    | Finished of record_outcome

  type t = { ctx : Ctx.t; mutable stage : stage }

  let create ctx = { ctx; stage = Created }
  let ctx t = t.ctx

  let stage_name t =
    match t.stage with
    | Created -> "created"
    | Established -> "established"
    | Booted _ -> "booted"
    | Attempted _ -> "attempted"
    | Finished _ -> "finished"

  let step t =
    match t.stage with
    | Created ->
      establish t.ctx;
      t.stage <- Established;
      `More
    | Established ->
      let vm = boot t.ctx in
      t.stage <- Booted vm;
      `More
    | Booted vm ->
      let gpushim, shim, _session, runner =
        attempt_loop t.ctx ~devicetree:(Cloudvm.selected_tree vm)
      in
      t.stage <- Attempted { vm; gpushim; shim; runner };
      `More
    | Attempted { vm; gpushim; shim; runner } ->
      let outcome = finalize_and_sign t.ctx ~vm ~gpushim ~shim ~runner in
      t.stage <- Finished outcome;
      `Done outcome
    | Finished outcome -> `Done outcome

  let run t =
    let rec go () =
      match step t with
      | `More -> go ()
      | `Done outcome -> outcome
    in
    try go ()
    with e ->
      (* Session post-mortem (mispredict storms, Recovery_diverged, link
         collapse): surface the link/shim event ring. *)
      let bt = Printexc.get_raw_backtrace () in
      dump_trace t.ctx;
      Printexc.raise_with_backtrace e bt
end

(* Serve an already-recorded blob to a fresh client: the attested channel
   still has to be established and the download + verification still happen
   — only the dry run is skipped (the service's cache-hit path). The
   verdict is the resident's, so a re-serve hashes nothing. *)
let serve_resident (ctx : Ctx.t) resident =
  establish ctx;
  Link.one_way_to_client ctx.link ~bytes:(Recording.resident_length resident);
  client_accepts (Recording.verify_resident ~key:cloud_signing_key resident)

let serve_cached ctx ~blob = serve_resident ctx (Recording.resident_lent blob)

let record ?history ?inject_fault_after ?inject_outage_after ?config ?(granularity = `Monolithic)
    ?window ?trace_capacity ?observe ~profile ~mode ~sku ~net ~seed () =
  let cfg =
    match config with
    | None -> Mode.default_config mode
    | Some c when c.Mode.mode = mode -> c
    | Some c ->
      invalid_arg
        (Printf.sprintf "Orchestrate.record: ~mode:%s but ~config is for %s" (Mode.name mode)
           (Mode.name c.Mode.mode))
  in
  let options =
    {
      Ctx.default_options with
      Ctx.history;
      inject_fault_after;
      window = (match window with Some w -> w | None -> Ctx.default_options.Ctx.window);
      trace_capacity;
      observe = (match observe with Some o -> o | None -> false);
    }
  in
  let ctx = Ctx.create ~options ~cfg ~profile ~sku ~net ~seed ~granularity () in
  (match inject_outage_after with Some k -> Link.inject_outage_after ctx.link k | None -> ());
  Pipeline.run (Pipeline.create ctx)

type replay_outcome = { r : Replayer.result; setup_s : float }

(* The client TEE's own signing identity for replay-attestation tokens
   (distinct from the cloud's recording-service key). *)
let client_attestation_key : Grt_tee.Crypto.key = "grt-client-tee-attestation-v1"

let compile_recording ~blob () =
  match Replay_prog.of_blob ~key:cloud_signing_key blob with
  | Ok prog -> prog
  | Error e -> raise (Replayer.Rejected e)

(* A fresh client session (own clock and energy meter). [salt] keeps the
   clients of single recordings and of segment lists apart. *)
let fresh_client ~salt ~sku ~seed =
  let clock = Grt_sim.Clock.create () in
  let energy = Grt_sim.Energy.create clock in
  let cfg = Mode.default_config Mode.Ours_mds in
  let gpushim =
    Gpushim.create ~clock ~sku ~energy ~session_salt:(Grt_util.Hashing.combine seed salt) ~cfg ()
  in
  (gpushim, clock, energy)

let replay_gpushim ~sku ~seed () = fresh_client ~salt:0x7265706CL ~sku ~seed

(* Run [replay] on a client; setup is the virtual time it spent before its
   stimuli. *)
let replay_on (gpushim, clock, energy) replay =
  let t0 = Grt_sim.Clock.now_s clock in
  let r = replay gpushim energy in
  { r; setup_s = Grt_sim.Clock.now_s clock -. t0 -. r.Replayer.delay_s }

let replay_compiled ~sku ~prog ~input ~params ~seed () =
  replay_on (replay_gpushim ~sku ~seed ()) (fun gpushim energy ->
      Replayer.replay_compiled ~gpushim ~prog ~input ~params ~energy ())

let replay_blobs client ~blobs ~input ~params =
  replay_on client (fun gpushim energy ->
      Replayer.replay_segments ~gpushim ~signing_key:cloud_signing_key ~blobs ~input ~params
        ~energy ())

let replay_recording ~sku ~blob ~input ~params ~seed () =
  replay_blobs (replay_gpushim ~sku ~seed ()) ~blobs:[ blob ] ~input ~params

let replay_segments ~sku ~blobs ~input ~params ~seed () =
  replay_blobs (fresh_client ~salt:0x7365676CL ~sku ~seed) ~blobs ~input ~params
