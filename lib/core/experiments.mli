(** Experiment drivers for every table and figure in the paper's evaluation
    (§7). The benchmark harness prints these; the test suite checks their
    qualitative claims (who wins, by roughly what factor).

    Record outcomes are cached per (profile, mode, network) within a run so
    the tables that share data (Figure 7, Table 1, Figure 8, Figure 9) do
    not repeat simulations. Within one (profile, mode) sweep the speculation
    history is retained across workloads, as in §7.3. *)

type ctx

val create_ctx : ?sku:Grt_gpu.Sku.t -> ?seed:int64 -> unit -> ctx

val record_outcome :
  ctx -> profile:Grt_net.Profile.t -> mode:Mode.t -> Grt_mlfw.Network.t -> Orchestrate.record_outcome
(** Cached. Networks recorded in Table 1 order share history per
    (profile, mode). *)

(** Figure 7: end-to-end recording delays (seconds) per network and mode. *)
type fig7_row = { workload : string; delays : (Mode.t * float) list }

val fig7 : ctx -> profile:Grt_net.Profile.t -> fig7_row list

(** Table 1: blocking round trips and memory-sync traffic. *)
type table1_row = {
  workload : string;
  gpu_jobs : int;
  rtts_m : int;
  rtts_md : int;
  rtts_mds : int;
  memsync_naive_mb : float;
  memsync_ours_mb : float;
}

val table1 : ctx -> profile:Grt_net.Profile.t -> table1_row list

(** Table 2: replay vs native inference delay (ms). *)
type table2_row = {
  workload : string;
  native_ms : float;
  replay_ms : float;
  outputs_match : bool;  (** replayed output bit-equal to native *)
}

val table2 : ctx -> table2_row list

(** Figure 8: breakdown of speculative commits by driver routine category. *)
type fig8_row = {
  workload : string;
  total_speculated : int;
  shares : (Drivershim.category * float) list;  (** normalized to 1.0 *)
}

val fig8 : ctx -> profile:Grt_net.Profile.t -> fig8_row list

(** Figure 9: whole-client energy for record (Naive vs GR-T) and replay. *)
type fig9_row = {
  workload : string;
  record_naive_j : float;
  record_mds_j : float;
  replay_j : float;
}

val fig9 : ctx -> profile:Grt_net.Profile.t -> fig9_row list

(** §7.3 deferral/speculation statistics. *)
type stats_row = {
  workload : string;
  accesses : int;
  commits : int;
  accesses_per_commit : float;
  speculated_pct : float;
  rejected_nondet : int;
}

val deferral_stats : ctx -> profile:Grt_net.Profile.t -> stats_row list

(** §7.3 polling offload. *)
type polling_row = {
  workload : string;
  instances : int;
  offloaded : int;
  rtts_without_offload : int;  (** blocking RTTs with offload disabled *)
  rtts_with_offload : int;
}

val polling : ctx -> profile:Grt_net.Profile.t -> polling_row list

(** §7.3 misprediction: inject a wrong register value, measure recovery. *)
type rollback_row = {
  workload : string;
  detected : bool;
  rollbacks : int;
  rollback_s : float;
  completed : bool;  (** the re-run finished and produced a recording *)
}

val rollback : ctx -> profile:Grt_net.Profile.t -> nets:Grt_mlfw.Network.t list -> rollback_row list

(** Ablation over the design knobs DESIGN.md calls out. *)
type ablation_row = { label : string; delay_s : float; rtts : int; sync_mb : float }

val ablation : ctx -> profile:Grt_net.Profile.t -> net:Grt_mlfw.Network.t -> ablation_row list

(** Lossy-link campaign: sweep window size × drop probability over the wifi
    and cellular profiles and check each run's signed blob against the
    stop-and-wait zero-fault recording (they must be bit-identical — window
    size and faults may move the clock and the counters, never the recorded
    interactions). *)
type fault_row = {
  profile_name : string;  (** base profile swept (wifi, cellular) *)
  window : int;  (** link sliding-window size (1 = stop-and-wait) *)
  drop_prob : float;
  total_s : float;
  retransmits : int;
  degraded_entries : int;  (** times the link tripped into degraded mode *)
  rollbacks : int;
  link_downs : int;
  blob_identical : bool;
      (** blob matches the window=1 zero-fault recording *)
}

val fault_campaign :
  ctx -> ?drops:float list -> ?windows:int list -> net:Grt_mlfw.Network.t -> unit -> fault_row list
(** [drops] defaults to [0; 0.01; 0.05; 0.1]; [windows] to [[1; 4]]
    (a windowed run keeps up to the window size of speculative commits in
    flight). *)

(** Memsync fast-path sweep on a synthetic sender/receiver pair: pages
    dirtied per round × duplicate-content rate × feature variant (dirty
    tracking alone, or with tagged records: dedup + adaptive encoding).
    [reproduced] asserts the receiver memory ended bit-identical to the
    sender's. *)
type memsync_sweep_row = {
  variant : string;
  dirtied_per_round : int;
  dup_rate : float;
  sweep_rounds : int;
  sweep_pages : int;
  sweep_wire_bytes : int;
  sweep_raw_bytes : int;
  pages_visited : int;  (** total meta pages examined across all rounds *)
  hash_hits : int;  (** pages shipped as 8-byte hash references *)
  enc_mix : (string * int) list;  (** chosen encoding name -> record count *)
  sync_us : float;  (** host-side microseconds per [sync_meta] call *)
  reproduced : bool;
}

val memsync_sweep :
  ?pages:int -> ?rounds:int -> ?dirtied:int list -> ?dup_rates:float list -> unit ->
  memsync_sweep_row list
(** Defaults: 64 pages, 8 rounds, dirtied [[4; 16; 64]], dup rates
    [[0; 0.5; 0.9]]. *)

(** Memsync fast path on a real workload: baseline config vs. tagged
    records (dedup + adaptive encoding), same seed — wire bytes, blob size,
    visit counts and a replay-vs-native output check per row. *)
type memsync_workload_row = {
  config_label : string;  (** "baseline" or "fastpath" *)
  net_name : string;
  down_wire_bytes : int;
  up_wire_bytes : int;
  blob_bytes : int;
  mpages_visited : int;
  mpages_meta : int;
  workload_enc_mix : (string * int) list;  (** nonzero encoding counters *)
  replay_matches : bool;
}

val memsync_workload : ctx -> net:Grt_mlfw.Network.t -> memsync_workload_row list

(** Fleet benchmark: the {!Service} under a Zipf client population. *)
type fleet_row = {
  fleet_clients : int;
  distinct_keys : int;  (** distinct cache keys the population hit *)
  fleet_recordings : int;
  fleet_cache_hits : int;
  fleet_coalesced : int;
  fleet_failures : int;
  fleet_evictions : int;
  fleet_hit_rate : float;  (** (hits + coalesced) / sessions *)
  host_wall_s : float;
      (** elapsed host seconds over the whole run, on the [wall] clock,
          outside the virtual timeline *)
  wall_sessions_per_s : float;  (** clients / host_wall_s *)
  virtual_s : float;  (** fleet-wide virtual-time span *)
  mean_turnaround_s : float;
  p95_turnaround_s : float;
  fleet_sync_wire_mb : float;  (** aggregate memsync traffic, both dirs *)
  fleet_blocking_rtts : int;
  spec_cross_hits : int;  (** §7.3 history hits across sessions *)
  sync_cross_hits : int;  (** pages served from the shared content store *)
  minor_words_per_session : float;
      (** minor-heap words allocated during {!Service.run}, per client *)
  promoted_words_per_session : float;
      (** words promoted to the major heap during {!Service.run}, per
          client ([Gc.quick_stat] delta) *)
}

val fleet :
  ?options:Service.fleet_options ->
  ?observe:bool ->
  ?cache_capacity:int ->
  wall:(unit -> float) ->
  unit ->
  fleet_row * Service.t
(** Generate [options]'s fleet ({!Service.zipf_fleet}), run it through a
    fresh service, and summarize. [wall] is the elapsed-time clock, in
    seconds, for [host_wall_s] — pass a monotonic clock, never [Sys.time]
    (CPU seconds). [observe] (default false) enables the fleet observability plane
    ({!Service.run}) so the returned service carries an
    {!Service.observation} for {!Report.of_fleet} / Perfetto export. The
    service is returned for {!Service.cache_listing}. *)

val fleet_minor_words_ceiling : float
(** Checked-in ceiling on {!fleet_row.minor_words_per_session} for the
    default fleet. It catches per-client work creeping back onto the
    session path (e.g. expanding every client's network plan); the
    [bench/main.exe fleet --enforce-floor] smoke fails above it. *)

val fleet_promoted_words_ceiling : float
(** Checked-in ceiling on {!fleet_row.promoted_words_per_session} for the
    default fleet: words that survive into the major heap grow with the
    recordings held live at once, so this catches executors that keep many
    sessions' working sets alive. Same smoke, same failure. *)

(** {2 JSON row export}

    One function per row type, mirroring the printed table field for field,
    so [bench/main.exe --json] can emit machine-readable copies of exactly
    what it prints (asserted by the test suite). *)

type replay_bench_row = {
  workload : string;
  entries : int;
  interpreted_rps : float;  (** replays/sec, interpreted path, fresh session each *)
  compiled_cold_rps : float;  (** compile + execute per replay *)
  compiled_warm_rps : float;  (** compile once, session reused across the batch *)
  warm_speedup : float;  (** compiled_warm_rps / interpreted_rps *)
  fused_writes : int;
  static_pages : int;
  dynamic_loads : int;
  bit_identical : bool;  (** compiled output == interpreted, several seeds *)
  warm_minor_words : float;  (** minor-heap words per warm compiled replay *)
  cold_minor_words : float;
      (** minor-heap words per cold start: compile plus a first replay on a
          fresh client *)
}

val replay_bench : ?nets:Grt_mlfw.Network.t list -> ?iters:int -> ctx -> replay_bench_row list
(** Host-side replay throughput, interpreted vs compiled (cold and warm),
    plus the compiled-path correctness check (ROADMAP item 2). *)

val replay_words_ceiling : string -> (float * float) option
(** Checked-in ceilings on minor words per warm replay and per cold start
    for one {!replay_bench} row (workload name), if pinned. The counts are
    deterministic, so a row above a ceiling means a new allocation on that
    replay path; the CI replay smoke fails on it. *)

type speed_row = {
  speed_label : string;
  speed_accesses : int;  (** simulated register accesses per session *)
  speed_iters : int;
  speed_host_s : float;  (** host seconds across all iterations, GPU time excluded *)
  accesses_per_s : float;
  minor_words_per_access : float;
  speed_memo : Grt_util.Json.t;
      (** {!Grt_util.Memo_stats.to_json} over this row's measured window
          (counters reset after the warm-up probe), exported as the
          [memo_stats] member of {!speed_row_json} *)
}

val speed : ?iters:int -> ctx -> speed_row list
(** Recording-hot-loop throughput (ROADMAP item 5): simulated register
    accesses per host second and minor-heap words per access, over full
    MNIST record sessions in the modes that exercise each rewritten layer
    (naive, speculative, tagged-memsync, windowed link), plus one
    speculative MobileNet session, whose stop-and-wait speculation queue
    runs hundreds of commits deep. Fresh speculation
    history per iteration, GPU-side host time excluded — see the
    implementation comment for the methodology. *)

val speed_ceilings : (string * float) list
(** Checked-in minor-words/access ceiling per {!speed} row label. An
    allocation regression in the wire/queue/memory hot path shows up as a
    row exceeding its ceiling; the CI speed smoke fails on it. *)

val speed_ceiling : string -> float option
(** Ceiling for one row label, if pinned. *)

val fig7_row_json : fig7_row -> Grt_util.Json.t
val table1_row_json : table1_row -> Grt_util.Json.t
val table2_row_json : table2_row -> Grt_util.Json.t
val fig8_row_json : fig8_row -> Grt_util.Json.t
val fig9_row_json : fig9_row -> Grt_util.Json.t
val stats_row_json : stats_row -> Grt_util.Json.t
val polling_row_json : polling_row -> Grt_util.Json.t
val rollback_row_json : rollback_row -> Grt_util.Json.t
val ablation_row_json : ablation_row -> Grt_util.Json.t
val fault_row_json : fault_row -> Grt_util.Json.t
val replay_bench_row_json : replay_bench_row -> Grt_util.Json.t
val memsync_sweep_row_json : memsync_sweep_row -> Grt_util.Json.t
val memsync_workload_row_json : memsync_workload_row -> Grt_util.Json.t
val fleet_row_json : fleet_row -> Grt_util.Json.t
val speed_row_json : speed_row -> Grt_util.Json.t
