module Profile = Grt_net.Profile
module Network = Grt_mlfw.Network
module Zoo = Grt_mlfw.Zoo
module Metrics = Grt_sim.Metrics

type ctx = {
  sku : Grt_gpu.Sku.t;
  seed : int64;
  cache : (string, Orchestrate.record_outcome) Hashtbl.t;
  histories : (string, Drivershim.history) Hashtbl.t;
  native_cache : (string, Native.run_result) Hashtbl.t;
}

let create_ctx ?(sku = Grt_gpu.Sku.g71_mp8) ?(seed = 42L) () =
  {
    sku;
    seed;
    cache = Hashtbl.create 64;
    histories = Hashtbl.create 8;
    native_cache = Hashtbl.create 8;
  }

let history_for ctx ~profile ~mode =
  let key = Printf.sprintf "%s/%s" profile.Profile.name (Mode.name mode) in
  match Hashtbl.find_opt ctx.histories key with
  | Some h -> h
  | None ->
    let h = Drivershim.fresh_history () in
    Hashtbl.replace ctx.histories key h;
    h

let record_outcome ctx ~profile ~mode net =
  let key =
    Printf.sprintf "%s/%s/%s" profile.Profile.name (Mode.name mode) net.Network.name
  in
  match Hashtbl.find_opt ctx.cache key with
  | Some o -> o
  | None ->
    let history = history_for ctx ~profile ~mode in
    let o =
      Orchestrate.record ~history ~profile ~mode ~sku:ctx.sku ~net ~seed:ctx.seed ()
    in
    Hashtbl.replace ctx.cache key o;
    o

(* Session counts of an outcome, read from its counter store. *)
let stat (o : Orchestrate.record_outcome) k = Metrics.get_int o.Orchestrate.counters k
let rtts o = stat o Metrics.Net_blocking_rtts
let sync_wire o = stat o Metrics.Sync_down_wire_bytes + stat o Metrics.Sync_up_wire_bytes
let sync_raw o = stat o Metrics.Sync_down_raw_bytes + stat o Metrics.Sync_up_raw_bytes
let accesses o = stat o Metrics.Reg_reads + stat o Metrics.Reg_writes

let native ctx net =
  match Hashtbl.find_opt ctx.native_cache net.Network.name with
  | Some r -> r
  | None ->
    let clock = Grt_sim.Clock.create () in
    let plan = Network.expand net in
    let input = Grt_mlfw.Runner.input_values plan ~seed:ctx.seed in
    let r = Native.run_inference ~clock ~sku:ctx.sku ~net ~seed:ctx.seed ~input () in
    Hashtbl.replace ctx.native_cache net.Network.name r;
    r

(* ---- Figure 7 ---- *)

type fig7_row = { workload : string; delays : (Mode.t * float) list }

let fig7 ctx ~profile =
  List.map
    (fun net ->
      {
        workload = net.Network.name;
        delays =
          List.map
            (fun mode -> (mode, (record_outcome ctx ~profile ~mode net).Orchestrate.total_s))
            Mode.all;
      })
    Zoo.all

(* ---- Table 1 ---- *)

type table1_row = {
  workload : string;
  gpu_jobs : int;
  rtts_m : int;
  rtts_md : int;
  rtts_mds : int;
  memsync_naive_mb : float;
  memsync_ours_mb : float;
}

let mb bytes = float_of_int bytes /. 1048576.

let table1 ctx ~profile =
  List.map
    (fun net ->
      let m = record_outcome ctx ~profile ~mode:Mode.Ours_m net in
      let md = record_outcome ctx ~profile ~mode:Mode.Ours_md net in
      let mds = record_outcome ctx ~profile ~mode:Mode.Ours_mds net in
      let naive = record_outcome ctx ~profile ~mode:Mode.Naive net in
      {
        workload = net.Network.name;
        gpu_jobs = Network.job_count net;
        rtts_m = rtts m;
        rtts_md = rtts md;
        rtts_mds = rtts mds;
        memsync_naive_mb = mb (sync_wire naive);
        memsync_ours_mb = mb (sync_raw m);
      })
    Zoo.all

(* ---- Table 2 ---- *)

type table2_row = {
  workload : string;
  native_ms : float;
  replay_ms : float;
  outputs_match : bool;
}

let table2 ctx =
  List.map
    (fun net ->
      let nat = native ctx net in
      let mds = record_outcome ctx ~profile:Profile.wifi ~mode:Mode.Ours_mds net in
      let plan = Network.expand net in
      let input = Grt_mlfw.Runner.input_values plan ~seed:ctx.seed in
      let params = Grt_mlfw.Runner.weight_values plan ~seed:ctx.seed in
      let ro =
        Orchestrate.replay_recording ~sku:ctx.sku ~blob:mds.Orchestrate.blob ~input ~params
          ~seed:ctx.seed ()
      in
      let matches =
        Array.length ro.Orchestrate.r.Replayer.output = Array.length nat.Native.output
        && Array.for_all2
             (fun a b -> Int32.equal (Int32.bits_of_float a) (Int32.bits_of_float b))
             ro.Orchestrate.r.Replayer.output nat.Native.output
      in
      {
        workload = net.Network.name;
        native_ms = nat.Native.delay_s *. 1e3;
        replay_ms = ro.Orchestrate.r.Replayer.delay_s *. 1e3;
        outputs_match = matches;
      })
    Zoo.all

(* ---- Figure 8 ---- *)

type fig8_row = {
  workload : string;
  total_speculated : int;
  shares : (Drivershim.category * float) list;
}

let fig8 ctx ~profile =
  List.map
    (fun net ->
      let o = record_outcome ctx ~profile ~mode:Mode.Ours_mds net in
      let speculated = stat o Metrics.Commits_speculated in
      let share c =
        float_of_int (stat o (Drivershim.category_key c)) /. float_of_int (max 1 speculated)
      in
      {
        workload = net.Network.name;
        total_speculated = speculated;
        shares = List.map (fun c -> (c, share c)) Drivershim.all_categories;
      })
    Zoo.all

(* ---- Figure 9 ---- *)

type fig9_row = {
  workload : string;
  record_naive_j : float;
  record_mds_j : float;
  replay_j : float;
}

let fig9 ctx ~profile =
  List.map
    (fun net ->
      let naive = record_outcome ctx ~profile ~mode:Mode.Naive net in
      let mds = record_outcome ctx ~profile ~mode:Mode.Ours_mds net in
      let plan = Network.expand net in
      let input = Grt_mlfw.Runner.input_values plan ~seed:ctx.seed in
      let params = Grt_mlfw.Runner.weight_values plan ~seed:ctx.seed in
      let ro =
        Orchestrate.replay_recording ~sku:ctx.sku ~blob:mds.Orchestrate.blob ~input ~params
          ~seed:ctx.seed ()
      in
      {
        workload = net.Network.name;
        record_naive_j = naive.Orchestrate.client_energy_j;
        record_mds_j = mds.Orchestrate.client_energy_j;
        replay_j = Option.value ~default:0.0 ro.Orchestrate.r.Replayer.energy_j;
      })
    Zoo.all

(* ---- §7.3 statistics ---- *)

type stats_row = {
  workload : string;
  accesses : int;
  commits : int;
  accesses_per_commit : float;
  speculated_pct : float;
  rejected_nondet : int;
}

let deferral_stats ctx ~profile =
  List.map
    (fun net ->
      let o = record_outcome ctx ~profile ~mode:Mode.Ours_mds net in
      let accesses = accesses o and commits = stat o Metrics.Commits_total in
      {
        workload = net.Network.name;
        accesses;
        commits;
        accesses_per_commit = float_of_int accesses /. float_of_int (max 1 commits);
        speculated_pct =
          100.0 *. float_of_int (stat o Metrics.Commits_speculated) /. float_of_int (max 1 commits);
        rejected_nondet = stat o Metrics.Spec_rejected_nondet;
      })
    Zoo.all

(* ---- §7.3 polling ---- *)

type polling_row = {
  workload : string;
  instances : int;
  offloaded : int;
  rtts_without_offload : int;
  rtts_with_offload : int;
}

let polling ctx ~profile =
  List.map
    (fun net ->
      let with_off = record_outcome ctx ~profile ~mode:Mode.Ours_mds net in
      let cfg = { (Mode.default_config Mode.Ours_mds) with Mode.offload_polling = false } in
      let without =
        Orchestrate.record ~config:cfg ~profile ~mode:Mode.Ours_mds ~sku:ctx.sku ~net
          ~seed:ctx.seed ()
      in
      {
        workload = net.Network.name;
        instances = stat with_off Metrics.Poll_instances;
        offloaded = stat with_off Metrics.Poll_offloaded;
        rtts_without_offload = rtts without;
        rtts_with_offload = rtts with_off;
      })
    Zoo.all

(* ---- §7.3 misprediction ---- *)

type rollback_row = {
  workload : string;
  detected : bool;
  rollbacks : int;
  rollback_s : float;
  completed : bool;
}

let rollback ctx ~profile ~nets =
  List.map
    (fun net ->
      (* Warm the history first so there is speculation to poison, then
         inject deep into the run (the worst case of §7.3). *)
      let history = Drivershim.fresh_history () in
      let warm () =
        Orchestrate.record ~history ~profile ~mode:Mode.Ours_mds ~sku:ctx.sku ~net
          ~seed:ctx.seed ()
      in
      ignore (warm ());
      let inject_at = 50 + (Network.job_count net * 10) in
      let o =
        Orchestrate.record ~history ~inject_fault_after:inject_at ~profile ~mode:Mode.Ours_mds
          ~sku:ctx.sku ~net ~seed:(Int64.add ctx.seed 1L) ()
      in
      {
        workload = net.Network.name;
        detected = o.Orchestrate.rollbacks > 0;
        rollbacks = o.Orchestrate.rollbacks;
        rollback_s = o.Orchestrate.rollback_s;
        completed = Array.length o.Orchestrate.recording.Recording.entries > 0;
      })
    nets

(* ---- ablation ---- *)

type ablation_row = { label : string; delay_s : float; rtts : int; sync_mb : float }

let ablation ctx ~profile ~net =
  let base = Mode.default_config Mode.Ours_mds in
  let variants =
    [
      ("GR-T (all techniques)", base);
      ("k=1 (aggressive speculation)", { base with Mode.spec_history_k = 1 });
      ("k=5 (conservative speculation)", { base with Mode.spec_history_k = 5 });
      ("no polling offload", { base with Mode.offload_polling = false });
      ("no dump compression", { base with Mode.compress_dumps = false });
      ("no dump deltas", { base with Mode.delta_dumps = false });
      ("deferral everywhere (no hot scope)", { base with Mode.hot_function_scope = false });
      ("no continuous validation", { base with Mode.continuous_validation = false });
    ]
  in
  List.map
    (fun (label, cfg) ->
      let o =
        Orchestrate.record ~config:cfg ~profile ~mode:cfg.Mode.mode ~sku:ctx.sku ~net
          ~seed:ctx.seed ()
      in
      {
        label;
        delay_s = o.Orchestrate.total_s;
        rtts = rtts o;
        sync_mb = mb (sync_wire o);
      })
    variants

(* ---- fault campaign ----

   Record the same workload over increasingly lossy channels and check the
   property the whole PR hangs on: the link is a cost model, retransmission
   and degraded-mode fallbacks change *when* things happen, never *what* is
   recorded — so the signed blob must stay bit-identical to the zero-fault
   recording. *)

type fault_row = {
  profile_name : string;
  window : int;
  drop_prob : float;
  total_s : float;
  retransmits : int;
  degraded_entries : int;
  rollbacks : int;
  link_downs : int;
  blob_identical : bool;
}

let fault_campaign ctx ?(drops = [ 0.0; 0.01; 0.05; 0.1 ]) ?(windows = [ 1; 4 ]) ~net () =
  List.concat_map
    (fun base ->
      (* Each run gets a fresh history so speculation warms up identically;
         the cache is bypassed for the same reason. A windowed run also
         pipelines up to [window] speculative commits, so the wire window is
         actually exercised. *)
      let run ~window profile =
        Orchestrate.record ~history:(Drivershim.fresh_history ()) ~window ~profile
          ~mode:Mode.Ours_mds ~sku:ctx.sku ~net ~seed:ctx.seed ()
      in
      (* One reference per base profile: the stop-and-wait zero-fault
         recording. Every windowed and lossy variant must reproduce its
         signed blob bit-for-bit. *)
      let reference = run ~window:1 base in
      List.concat_map
        (fun window ->
          List.map
            (fun drop ->
              let o =
                if drop = 0. && window = 1 then reference
                else
                  run ~window (if drop = 0. then base else Profile.degrade ~drop_prob:drop base)
              in
              {
                profile_name = base.Profile.name;
                window;
                drop_prob = drop;
                total_s = o.Orchestrate.total_s;
                retransmits = stat o Metrics.Net_retransmits;
                degraded_entries = stat o Metrics.Net_degraded_entries;
                rollbacks = o.Orchestrate.rollbacks;
                link_downs = stat o Metrics.Recovery_link_downs;
                blob_identical = Bytes.equal o.Orchestrate.blob reference.Orchestrate.blob;
              })
            drops)
        windows)
    [ Profile.wifi; Profile.cellular ]

(* ---- memsync fast-path sweep ----

   A synthetic two-endpoint rig: one sender memory with a Cmd region of
   [pages] pages, one receiver memory, and a Memsync pair between them.
   Each round dirties [dirtied] pages — bodies drawn from a deterministic
   mix of sparse (range coding wins), dense random (raw wins) and
   small-perturbation (delta wins) content, with [dup_rate] of the writes
   reusing a body written before (dedup's habitat) — then syncs and applies.
   The receiver must end bit-identical to the sender under every variant. *)

type memsync_sweep_row = {
  variant : string;
  dirtied_per_round : int;
  dup_rate : float;
  sweep_rounds : int;
  sweep_pages : int;
  sweep_wire_bytes : int;
  sweep_raw_bytes : int;
  pages_visited : int;
  hash_hits : int;
  enc_mix : (string * int) list;
  sync_us : float;  (* host-side microseconds per sync_meta call *)
  reproduced : bool;
}

let memsync_variants =
  [
    ("dirty", fun (c : Mode.config) -> c);
    ("dirty+dedup+adaptive", fun c -> { c with Mode.memsync_tagged = true });
  ]

(* Host wall seconds from the monotonic clock. [Sys.time] would give CPU
   seconds instead. *)
let wall_seconds () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let memsync_sweep_one ~variant ~tweak ~pages ~rounds ~dirtied ~dup_rate =
  let module Mem = Grt_gpu.Mem in
  let cfg = tweak (Mode.default_config Mode.Ours_mds) in
  let mem_s = Mem.create () and mem_r = Mem.create () in
  let pa = Mem.alloc_pages mem_s pages in
  let first = Mem.page_of_addr pa in
  let sender = Memsync.create cfg and receiver = Memsync.create cfg in
  Memsync.register_region sender
    {
      Memsync.name = "sweep-cmd";
      meta = true;
      va = 0x1000_0000L;
      pa;
      model_bytes = pages * Mem.page_size;
      actual_bytes = pages * Mem.page_size;
    };
  let rng = Grt_util.Rng.create ~seed:0x5eed_5eedL in
  let pool = ref [||] in
  let fresh_body pfn =
    let b =
      match Grt_util.Rng.int rng 3 with
      | 0 ->
        (* sparse: almost all zeroes *)
        let b = Bytes.make Mem.page_size '\000' in
        for _ = 0 to 31 do
          Bytes.set b (Grt_util.Rng.int rng Mem.page_size) '\x42'
        done;
        b
      | 1 -> Grt_util.Rng.bytes rng Mem.page_size (* dense: incompressible *)
      | _ ->
        (* perturbation of the page's current contents *)
        let b = Mem.get_page mem_s pfn in
        for _ = 0 to 7 do
          Bytes.set b (Grt_util.Rng.int rng Mem.page_size)
            (Char.chr (Grt_util.Rng.int rng 256))
        done;
        b
    in
    pool := Array.append !pool [| b |];
    b
  in
  let wire = ref 0 and raw = ref 0 and visited = ref 0 and hash_hits = ref 0 in
  let enc_counts = Hashtbl.create 8 in
  let t0 = wall_seconds () in
  for _round = 1 to rounds do
    for _i = 1 to dirtied do
      let pfn = Int64.add first (Int64.of_int (Grt_util.Rng.int rng pages)) in
      let body =
        if Array.length !pool > 0 && Grt_util.Rng.float rng 1.0 < dup_rate then
          !pool.(Grt_util.Rng.int rng (Array.length !pool))
        else fresh_body pfn
      in
      Mem.set_page mem_s pfn body
    done;
    let p = Memsync.sync_meta sender mem_s in
    wire := !wire + p.Memsync.wire_bytes;
    raw := !raw + p.Memsync.raw_bytes;
    visited := !visited + p.Memsync.visited;
    List.iter
      (fun (r : Memsync.page_record) ->
        let n = Memsync.encoding_name r.Memsync.enc in
        Hashtbl.replace enc_counts n
          (1 + Option.value ~default:0 (Hashtbl.find_opt enc_counts n));
        if r.Memsync.enc = Memsync.Enc_hash_ref then incr hash_hits)
      p.Memsync.records;
    ignore (Memsync.receive receiver mem_r p)
  done;
  let elapsed = wall_seconds () -. t0 in
  let reproduced =
    List.for_all
      (fun i ->
        let pfn = Int64.add first (Int64.of_int i) in
        Bytes.equal (Mem.get_page mem_s pfn) (Mem.get_page mem_r pfn))
      (List.init pages (fun i -> i))
  in
  {
    variant;
    dirtied_per_round = dirtied;
    dup_rate;
    sweep_rounds = rounds;
    sweep_pages = pages;
    sweep_wire_bytes = !wire;
    sweep_raw_bytes = !raw;
    pages_visited = !visited;
    hash_hits = !hash_hits;
    enc_mix =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) enc_counts []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
    sync_us = elapsed /. float_of_int rounds *. 1e6;
    reproduced;
  }

let memsync_sweep ?(pages = 64) ?(rounds = 8) ?(dirtied = [ 4; 16; 64 ])
    ?(dup_rates = [ 0.0; 0.5; 0.9 ]) () =
  List.concat_map
    (fun (variant, tweak) ->
      List.concat_map
        (fun d ->
          List.map
            (fun dup -> memsync_sweep_one ~variant ~tweak ~pages ~rounds ~dirtied:d ~dup_rate:dup)
            dup_rates)
        dirtied)
    memsync_variants

(* ---- memsync fast path on a real workload ----

   The same recording, baseline config vs. the full fast path (tagged
   records: dedup + adaptive encoding). Each run replays its own blob
   against the native output, so the row proves the tagged record format
   round-trips end to end. *)

type memsync_workload_row = {
  config_label : string;
  net_name : string;
  down_wire_bytes : int;
  up_wire_bytes : int;
  blob_bytes : int;
  mpages_visited : int;
  mpages_meta : int;
  workload_enc_mix : (string * int) list;
  replay_matches : bool;
}

let memsync_workload ctx ~net =
  let base = Mode.default_config Mode.Ours_mds in
  let fast = { base with Mode.memsync_tagged = true } in
  let nat = native ctx net in
  let plan = Network.expand net in
  let input = Grt_mlfw.Runner.input_values plan ~seed:ctx.seed in
  let params = Grt_mlfw.Runner.weight_values plan ~seed:ctx.seed in
  List.map
    (fun (config_label, cfg) ->
      let o =
        Orchestrate.record ~history:(Drivershim.fresh_history ()) ~config:cfg
          ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku:ctx.sku ~net ~seed:ctx.seed ()
      in
      let ro =
        Orchestrate.replay_recording ~sku:ctx.sku ~blob:o.Orchestrate.blob ~input ~params
          ~seed:ctx.seed ()
      in
      let matches =
        Array.length ro.Orchestrate.r.Replayer.output = Array.length nat.Native.output
        && Array.for_all2
             (fun a b -> Int32.equal (Int32.bits_of_float a) (Int32.bits_of_float b))
             ro.Orchestrate.r.Replayer.output nat.Native.output
      in
      let c = stat o in
      {
        config_label;
        net_name = net.Network.name;
        down_wire_bytes = c Metrics.Sync_down_wire_bytes;
        up_wire_bytes = c Metrics.Sync_up_wire_bytes;
        blob_bytes = Bytes.length o.Orchestrate.blob;
        mpages_visited = c Metrics.Sync_pages_visited;
        mpages_meta = c Metrics.Sync_pages_meta;
        workload_enc_mix =
          List.filter_map
            (fun e ->
              let v = c (Sync_flow.enc_key e) in
              if v > 0 then Some (Memsync.encoding_name e, v) else None)
            [
              Memsync.Enc_raw;
              Memsync.Enc_raw_rc;
              Memsync.Enc_delta;
              Memsync.Enc_delta_rc;
              Memsync.Enc_hash_ref;
            ];
        replay_matches = matches;
      })
    [ ("baseline", base); ("fastpath", fast) ]

(* ---- replay throughput: interpreted vs compiled (ROADMAP item 2) ----

   Host-side replays/sec for the three replay paths:

   - interpreted: [Orchestrate.replay_recording] — eager blob verification,
     entry-log interpretation, fresh client session per replay;
   - compiled cold: compile + execute once per replay (what a client pays
     the first time it sees a blob);
   - compiled warm: compile once, one client session reused across the
     batch — chunk hashes verified on first execution only, poll hints and
     decoded memory images live across iterations. This is the paper's
     deployment shape: one recording, millions of replays.

   Rates use the monotonic wall clock, the one [Device.gpu_host_seconds]
   accumulates on; the measurement loop grows until the sample is long
   enough to time reliably. Outputs are
   additionally checked bit-identical between the interpreted and compiled
   paths across several fresh input seeds. *)

type replay_bench_row = {
  workload : string;
  entries : int;
  interpreted_rps : float;
  compiled_cold_rps : float;
  compiled_warm_rps : float;
  warm_speedup : float;  (** compiled_warm_rps / interpreted_rps *)
  fused_writes : int;
  static_pages : int;
  dynamic_loads : int;
  bit_identical : bool;
  warm_minor_words : float;
  cold_minor_words : float;
}

(* Replayer-machinery throughput: repeat [f] until at least [min_elapsed]
   host seconds are sampled (or [max_reps] is hit), starting from [reps]
   calls. Host time spent doing the GPU's side of job execution (chain
   walk, MMU translation, shader validation, kernel math) is subtracted
   from each sample — that work stands in for silicon, runs identically in
   every replay path, and on real hardware costs the replayer nothing — so the
   rate isolates the machinery the compiled path actually optimizes:
   parse, verify, decode, entry dispatch, slot and memory-image I/O. *)
let host_rate ?(min_elapsed = 0.05) ~reps ~max_reps f =
  let rec go reps =
    let k0 = Grt_gpu.Device.gpu_host_seconds () in
    let t0 = wall_seconds () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = wall_seconds () -. t0 -. (Grt_gpu.Device.gpu_host_seconds () -. k0) in
    if dt < min_elapsed && reps < max_reps then go (min max_reps (reps * 4))
    else float_of_int reps /. Float.max dt 1e-9
  in
  go reps

(* Warm replays are deterministic, GPU work included (the kernel model runs
   inside them), so minor words per warm replay are an exact count over a
   few replays after the first; so are the words of a cold start (compile
   plus a first replay on a fresh client) once the process-wide codec memo
   has seen the blob. [replay_words_ceilings] pins both per row, about 8%
   above the measured values (BENCH_replay.json, warm / cold: MNIST 4.9k /
   44.0k, AlexNet 11.9k / 99.6k, MobileNet 20.9k / 176.8k, SqueezeNet
   19.9k / 170.6k, ResNet12 21.6k / 177.0k, VGG16 19.1k / 157.0k); a
   breach means a new allocation on that replay path. *)
let replay_words_ceilings =
  [
    ("MNIST", 5_350., 47_500.);
    ("AlexNet", 12_900., 107_500.);
    ("MobileNet", 22_600., 191_000.);
    ("SqueezeNet", 21_500., 184_200.);
    ("ResNet12", 23_300., 191_100.);
    ("VGG16", 20_600., 169_500.);
  ]

let replay_words_ceiling workload =
  List.find_map
    (fun (w, warm, cold) -> if String.equal w workload then Some (warm, cold) else None)
    replay_words_ceilings

let replay_bench ?(nets = Zoo.all) ?(iters = 3) ctx =
  List.map
    (fun net ->
      let mds = record_outcome ctx ~profile:Profile.wifi ~mode:Mode.Ours_mds net in
      let blob = mds.Orchestrate.blob in
      let plan = Network.expand net in
      let input = Grt_mlfw.Runner.input_values plan ~seed:ctx.seed in
      let params = Grt_mlfw.Runner.weight_values plan ~seed:ctx.seed in
      let interpreted () =
        Orchestrate.replay_recording ~sku:ctx.sku ~blob ~input ~params ~seed:ctx.seed ()
      in
      let compiled_cold () =
        let prog = Orchestrate.compile_recording ~blob () in
        Orchestrate.replay_compiled ~sku:ctx.sku ~prog ~input ~params ~seed:ctx.seed ()
      in
      let prog = Orchestrate.compile_recording ~blob () in
      let gpushim, _, energy = Orchestrate.replay_gpushim ~sku:ctx.sku ~seed:ctx.seed () in
      let compiled_warm () =
        Replayer.replay_compiled ~gpushim ~prog ~input ~params ~energy ()
      in
      (* Correctness first (and it warms the program: hints, caches, chunk
         checks), then the timed runs. *)
      let bit_identical =
        List.for_all
          (fun seed ->
            let input = Grt_mlfw.Runner.input_values plan ~seed in
            let a =
              Orchestrate.replay_recording ~sku:ctx.sku ~blob ~input ~params ~seed:ctx.seed ()
            in
            let b =
              Orchestrate.replay_compiled ~sku:ctx.sku ~prog ~input ~params ~seed:ctx.seed ()
            in
            let wa = a.Orchestrate.r.Replayer.output and wb = b.Orchestrate.r.Replayer.output in
            Array.length wa = Array.length wb
            && Array.for_all2
                 (fun x y -> Int32.equal (Int32.bits_of_float x) (Int32.bits_of_float y))
                 wa wb
            && a.Orchestrate.r.Replayer.entries_applied = b.Orchestrate.r.Replayer.entries_applied)
          [ ctx.seed; 7L; 13L ]
      in
      ignore (compiled_warm ());
      let warm_minor_words =
        let w0 = Gc.minor_words () in
        for _ = 1 to 4 do
          ignore (compiled_warm ())
        done;
        (Gc.minor_words () -. w0) /. 4.
      in
      ignore (compiled_cold ());
      let cold_minor_words =
        let w0 = Gc.minor_words () in
        for _ = 1 to 2 do
          ignore (compiled_cold ())
        done;
        (Gc.minor_words () -. w0) /. 2.
      in
      let interpreted_rps = host_rate ~reps:iters ~max_reps:iters (fun () -> ignore (interpreted ())) in
      let compiled_cold_rps =
        host_rate ~reps:iters ~max_reps:(iters * 8) (fun () -> ignore (compiled_cold ()))
      in
      let compiled_warm_rps =
        host_rate ~reps:(iters * 10) ~max_reps:100_000 (fun () -> ignore (compiled_warm ()))
      in
      let st = Replay_prog.stats prog in
      {
        workload = net.Network.name;
        entries = st.Replay_prog.entries;
        interpreted_rps;
        compiled_cold_rps;
        compiled_warm_rps;
        warm_speedup = compiled_warm_rps /. Float.max interpreted_rps 1e-9;
        fused_writes = st.Replay_prog.fused_writes;
        static_pages = st.Replay_prog.static_pages;
        dynamic_loads = st.Replay_prog.dynamic_loads;
        bit_identical;
        warm_minor_words;
        cold_minor_words;
      })
    nets

(* ---- Fleet: the recording service under a Zipf client population ---- *)

type fleet_row = {
  fleet_clients : int;
  distinct_keys : int;
  fleet_recordings : int;
  fleet_cache_hits : int;
  fleet_coalesced : int;
  fleet_failures : int;
  fleet_evictions : int;
  fleet_hit_rate : float;
  host_wall_s : float;  (* elapsed host time, outside the virtual timeline *)
  wall_sessions_per_s : float;  (* clients / host_wall_s *)
  virtual_s : float;  (* fleet-wide virtual-time span *)
  mean_turnaround_s : float;
  p95_turnaround_s : float;
  fleet_sync_wire_mb : float;  (* aggregate memsync traffic, both dirs *)
  fleet_blocking_rtts : int;
  spec_cross_hits : int;  (* §7.3 history hits across sessions *)
  sync_cross_hits : int;  (* pages served from the shared content store *)
  minor_words_per_session : float;  (* minor-heap words allocated by the run, per client *)
  promoted_words_per_session : float;  (* words promoted to the major heap, per client *)
}

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n -> sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let fleet ?(options = Service.default_fleet) ?(observe = false) ?(cache_capacity = 0) ~wall () =
  let specs = Service.zipf_fleet options in
  let svc = Service.create ~cache_capacity () in
  let w0 = wall () in
  let words0 = Gc.minor_words () in
  let promoted0 = (Gc.quick_stat ()).Gc.promoted_words in
  let reports, rs = Service.run ~observe svc specs in
  let minor_words = Gc.minor_words () -. words0 in
  let promoted_words = (Gc.quick_stat ()).Gc.promoted_words -. promoted0 in
  let host_wall_s = Float.max (wall () -. w0) 1e-9 in
  let st = Service.stats svc in
  let agg = Service.aggregate svc reports in
  let g k = Metrics.get_int agg k in
  let turnarounds =
    Array.of_list (List.map (fun r -> r.Service.turnaround_s) reports)
  in
  Array.sort compare turnarounds;
  let mean_turnaround_s =
    match Array.length turnarounds with
    | 0 -> 0.
    | n -> Array.fold_left ( +. ) 0. turnarounds /. float_of_int n
  in
  let row =
    {
      fleet_clients = st.Service.sessions;
      distinct_keys = List.length (Service.cache_listing svc);
      fleet_recordings = st.Service.recordings;
      fleet_cache_hits = st.Service.cache_hits;
      fleet_coalesced = st.Service.coalesced;
      fleet_failures = st.Service.failures;
      fleet_evictions = st.Service.evictions;
      fleet_hit_rate = Service.hit_rate st;
      host_wall_s;
      wall_sessions_per_s = float_of_int st.Service.sessions /. host_wall_s;
      virtual_s = Int64.to_float rs.Service.rs_virtual_ns /. 1e9;
      mean_turnaround_s;
      p95_turnaround_s = percentile turnarounds 0.95;
      fleet_sync_wire_mb =
        float_of_int
          (g Metrics.Sync_down_wire_bytes
          + g Metrics.Sync_up_wire_bytes)
        /. 1e6;
      fleet_blocking_rtts = g Metrics.Net_blocking_rtts;
      spec_cross_hits = g Metrics.Spec_cross_hits;
      sync_cross_hits = g Metrics.Sync_cross_hits;
      minor_words_per_session = minor_words /. float_of_int (max 1 st.Service.sessions);
      promoted_words_per_session = promoted_words /. float_of_int (max 1 st.Service.sessions);
    }
  in
  (row, svc)

(* Measured on the default 10k-client fleet run by [bench/main.exe fleet]
   (2-core x86-64, OCaml 5.1.1): 2,258 minor and 274 promoted words per
   session, with re-serves answered from resident blobs, a trace ring
   that stores commits flat and receivers that hash no page until a
   reference needs one (BENCH_fleet.json). The ceilings sit about 8%
   above. Expanding every
   client's network plan at context creation brings the minor count back
   to ~28k; keeping every share group's recording live at once (the old
   interleaving executor) doubled the promoted count. Allocation counts
   are deterministic, so a breach is a code change, not noise. *)
let fleet_minor_words_ceiling = 2_450.

let fleet_promoted_words_ceiling = 295.

(* ---- Simulator raw speed (ROADMAP item 5) ----

   Host-side throughput of the *recording* hot loop: how many simulated
   register accesses per host second a full record session sustains, and how
   many minor-heap words each access costs. Every byte of every recording
   flows through the layers this measures (Mem/Mmu page stores, the
   queue→wire lowering, the link's exchange path), so the rows double as an
   allocation-regression tripwire: [speed_ceilings] pins a per-row
   minor-words/access ceiling, and callers (the CI smoke) can fail a run
   whose allocation rate regresses above it. The MNIST rows cover the
   recorder configurations; the MobileNet row covers a net whose
   stop-and-wait speculation queue runs hundreds of commits deep.

   Like [replay_bench], host seconds spent doing the GPU's side of job
   execution (kernel math, chain walk) are subtracted: that work stands in
   for silicon and runs identically in every mode, so the rate isolates the
   simulator machinery. Each iteration records with a fresh speculation
   history so every iteration takes the same path (no cross-iteration
   warming) and the accesses count is iteration-invariant. *)

type speed_row = {
  speed_label : string;
  speed_accesses : int;  (** simulated register accesses per session *)
  speed_iters : int;
  speed_host_s : float;  (** host seconds across all iterations, GPU time excluded *)
  accesses_per_s : float;
  minor_words_per_access : float;
  speed_memo : Grt_util.Json.t;
      (** per-memo hit/miss profile over this row's measured window *)
}

(* Measured with array commits, interned sites, the FIFO speculation queue,
   the one-pass signer, idle poll iterations skipped and commits written
   flat into the trace ring (BENCH_speed.json): Naive 127.0, OursMDS
   143.2, dedup 151.4, w4 143.3, MobileNet 141.0 minor-words/access. The
   ceilings leave ~25% headroom for hashtable-resize and iteration-count
   jitter; a breach means a new per-access allocation crept into the
   record path, not machine noise (allocation counts are deterministic). *)
let speed_ceilings =
  [
    ("record/MNIST/Naive", 165.);
    ("record/MNIST/OursMDS", 185.);
    ("record/MNIST/OursMDS-dedup", 195.);
    ("record/MNIST/OursMDS-w4", 185.);
    ("record/MobileNet/OursMDS", 180.);
  ]

let speed_ceiling label = List.assoc_opt label speed_ceilings

let speed ?(iters = 6) ctx =
  let session ?(net = Zoo.mnist) ?window ?config mode () =
    Orchestrate.record
      ~history:(Drivershim.fresh_history ())
      ?window ?config ~profile:Profile.wifi ~mode ~sku:ctx.sku ~net ~seed:ctx.seed ()
  in
  let measure label f =
    (* Warm-up run: fault in code paths and page tables, and probe the
       per-session access count (deterministic, so one probe suffices). *)
    let probe = f () in
    let accesses = accesses probe in
    (* Memo profile covers only the measured iterations: the warm-up's
       compulsory misses would otherwise drown the steady-state hit rate. *)
    Grt_util.Memo_stats.reset_counters ();
    (* Grow the batch until the sample is comfortably long enough to time;
       recording sessions are milliseconds-scale, so this settles after at
       most a couple of rounds. *)
    let rec sample iters =
      let k0 = Grt_gpu.Device.gpu_host_seconds () in
      let w0 = Gc.minor_words () in
      let t0 = wall_seconds () in
      for _ = 1 to iters do
        ignore (f ())
      done;
      let host_s = wall_seconds () -. t0 -. (Grt_gpu.Device.gpu_host_seconds () -. k0) in
      let minor_words = Gc.minor_words () -. w0 in
      if host_s < 0.08 && iters < 4096 then sample (iters * 4)
      else (iters, Float.max host_s 1e-9, minor_words)
    in
    let iters, host_s, minor_words = sample iters in
    let total_accesses = float_of_int (accesses * iters) in
    {
      speed_label = label;
      speed_accesses = accesses;
      speed_iters = iters;
      speed_host_s = host_s;
      accesses_per_s = total_accesses /. host_s;
      minor_words_per_access = minor_words /. Float.max total_accesses 1.;
      speed_memo = Grt_util.Memo_stats.to_json ();
    }
  in
  [
    measure "record/MNIST/Naive" (session Mode.Naive);
    measure "record/MNIST/OursMDS" (session Mode.Ours_mds);
    measure "record/MNIST/OursMDS-dedup"
      (session
         ~config:{ (Mode.default_config Mode.Ours_mds) with Mode.memsync_tagged = true }
         Mode.Ours_mds);
    measure "record/MNIST/OursMDS-w4" (session ~window:4 Mode.Ours_mds);
    measure "record/MobileNet/OursMDS" (session ~net:Zoo.mobilenet Mode.Ours_mds);
  ]

(* ---- JSON row export (bench --json, CI artifacts) ----

   One function per row type, mirroring the printed tables field for field
   so a test can assert the JSON rows carry exactly the table's values. *)

module Json = Grt_util.Json

let fig7_row_json (r : fig7_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("delays_s", Json.Obj (List.map (fun (m, d) -> (Mode.name m, Json.float d)) r.delays));
    ]

let table1_row_json (r : table1_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("gpu_jobs", Json.int r.gpu_jobs);
      ("rtts_m", Json.int r.rtts_m);
      ("rtts_md", Json.int r.rtts_md);
      ("rtts_mds", Json.int r.rtts_mds);
      ("memsync_naive_mb", Json.float r.memsync_naive_mb);
      ("memsync_ours_mb", Json.float r.memsync_ours_mb);
    ]

let table2_row_json (r : table2_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("native_ms", Json.float r.native_ms);
      ("replay_ms", Json.float r.replay_ms);
      ("outputs_match", Json.Bool r.outputs_match);
    ]

let fig8_row_json (r : fig8_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("total_speculated", Json.int r.total_speculated);
      ( "shares",
        Json.Obj
          (List.map
             (fun (c, s) -> (Drivershim.category_name c, Json.float s))
             r.shares) );
    ]

let fig9_row_json (r : fig9_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("record_naive_j", Json.float r.record_naive_j);
      ("record_mds_j", Json.float r.record_mds_j);
      ("replay_j", Json.float r.replay_j);
    ]

let stats_row_json (r : stats_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("accesses", Json.int r.accesses);
      ("commits", Json.int r.commits);
      ("accesses_per_commit", Json.float r.accesses_per_commit);
      ("speculated_pct", Json.float r.speculated_pct);
      ("rejected_nondet", Json.int r.rejected_nondet);
    ]

let polling_row_json (r : polling_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("instances", Json.int r.instances);
      ("offloaded", Json.int r.offloaded);
      ("rtts_without_offload", Json.int r.rtts_without_offload);
      ("rtts_with_offload", Json.int r.rtts_with_offload);
    ]

let rollback_row_json (r : rollback_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("detected", Json.Bool r.detected);
      ("rollbacks", Json.int r.rollbacks);
      ("rollback_s", Json.float r.rollback_s);
      ("completed", Json.Bool r.completed);
    ]

let replay_bench_row_json (r : replay_bench_row) =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("entries", Json.int r.entries);
      ("interpreted_rps", Json.float r.interpreted_rps);
      ("compiled_cold_rps", Json.float r.compiled_cold_rps);
      ("compiled_warm_rps", Json.float r.compiled_warm_rps);
      ("warm_speedup", Json.float r.warm_speedup);
      ("fused_writes", Json.int r.fused_writes);
      ("static_pages", Json.int r.static_pages);
      ("dynamic_loads", Json.int r.dynamic_loads);
      ("bit_identical", Json.Bool r.bit_identical);
      ("warm_minor_words", Json.float r.warm_minor_words);
      ("cold_minor_words", Json.float r.cold_minor_words);
      ( "ceiling_warm_minor_words",
        match replay_words_ceiling r.workload with
        | Some (c, _) -> Json.float c
        | None -> Json.Null );
      ( "ceiling_cold_minor_words",
        match replay_words_ceiling r.workload with
        | Some (_, c) -> Json.float c
        | None -> Json.Null );
    ]

let ablation_row_json (r : ablation_row) =
  Json.Obj
    [
      ("label", Json.Str r.label);
      ("delay_s", Json.float r.delay_s);
      ("rtts", Json.int r.rtts);
      ("sync_mb", Json.float r.sync_mb);
    ]

let memsync_sweep_row_json (r : memsync_sweep_row) =
  Json.Obj
    [
      ("variant", Json.Str r.variant);
      ("dirtied_per_round", Json.int r.dirtied_per_round);
      ("dup_rate", Json.float r.dup_rate);
      ("rounds", Json.int r.sweep_rounds);
      ("pages", Json.int r.sweep_pages);
      ("wire_bytes", Json.int r.sweep_wire_bytes);
      ("raw_bytes", Json.int r.sweep_raw_bytes);
      ("pages_visited", Json.int r.pages_visited);
      ("hash_hits", Json.int r.hash_hits);
      ("enc_mix", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.enc_mix));
      ("sync_us", Json.float r.sync_us);
      ("reproduced", Json.Bool r.reproduced);
    ]

let memsync_workload_row_json (r : memsync_workload_row) =
  Json.Obj
    [
      ("config", Json.Str r.config_label);
      ("workload", Json.Str r.net_name);
      ("down_wire_bytes", Json.int r.down_wire_bytes);
      ("up_wire_bytes", Json.int r.up_wire_bytes);
      ("blob_bytes", Json.int r.blob_bytes);
      ("pages_visited", Json.int r.mpages_visited);
      ("pages_meta", Json.int r.mpages_meta);
      ( "enc_mix",
        Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) r.workload_enc_mix) );
      ("replay_matches", Json.Bool r.replay_matches);
    ]

let fault_row_json (r : fault_row) =
  Json.Obj
    [
      ("profile", Json.Str r.profile_name);
      ("window", Json.int r.window);
      ("drop_prob", Json.float r.drop_prob);
      ("total_s", Json.float r.total_s);
      ("retransmits", Json.int r.retransmits);
      ("degraded_entries", Json.int r.degraded_entries);
      ("rollbacks", Json.int r.rollbacks);
      ("link_downs", Json.int r.link_downs);
      ("blob_identical", Json.Bool r.blob_identical);
    ]

let fleet_row_json (r : fleet_row) =
  Json.Obj
    [
      ("clients", Json.int r.fleet_clients);
      ("distinct_keys", Json.int r.distinct_keys);
      ("recordings", Json.int r.fleet_recordings);
      ("cache_hits", Json.int r.fleet_cache_hits);
      ("coalesced", Json.int r.fleet_coalesced);
      ("failures", Json.int r.fleet_failures);
      ("evictions", Json.int r.fleet_evictions);
      ("hit_rate", Json.float r.fleet_hit_rate);
      ("host_wall_s", Json.float r.host_wall_s);
      ("wall_sessions_per_s", Json.float r.wall_sessions_per_s);
      ("virtual_s", Json.float r.virtual_s);
      ("mean_turnaround_s", Json.float r.mean_turnaround_s);
      ("p95_turnaround_s", Json.float r.p95_turnaround_s);
      ("sync_wire_mb", Json.float r.fleet_sync_wire_mb);
      ("blocking_rtts", Json.int r.fleet_blocking_rtts);
      ("spec_cross_hits", Json.int r.spec_cross_hits);
      ("sync_cross_hits", Json.int r.sync_cross_hits);
      ("minor_words_per_session", Json.float r.minor_words_per_session);
      ("promoted_words_per_session", Json.float r.promoted_words_per_session);
    ]

let speed_row_json (r : speed_row) =
  Json.Obj
    [
      ("label", Json.Str r.speed_label);
      ("accesses", Json.int r.speed_accesses);
      ("iters", Json.int r.speed_iters);
      ("host_s", Json.float r.speed_host_s);
      ("accesses_per_s", Json.float r.accesses_per_s);
      ("minor_words_per_access", Json.float r.minor_words_per_access);
      ( "ceiling_minor_words_per_access",
        match speed_ceiling r.speed_label with
        | Some c -> Json.float c
        | None -> Json.Null );
      ("memo_stats", r.speed_memo);
    ]
