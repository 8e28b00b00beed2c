(** The multi-session recording service.

    The cloud side of §3.1 at fleet scale: many clients request recordings;
    the service answers repeat requests from a content-addressed cache of
    already-signed blobs, so the expensive dry run happens once per
    distinct (workload, GPU, stack, wire format) and every other client
    pays only the attested download.

    Cross-session state (§7.3): sessions of the same (network, SKU) share
    one {!Spec_history} table — later recordings speculate confidently from
    the first access — and same-key sessions share a {!Memsync.Store} so a
    re-recording after eviction ships mostly hash references.

    Determinism: cache decisions are taken at client *arrival*, in arrival
    order, before any session runs. Sessions then run to completion one
    after another in that decision order, each on its own clock, and the
    few cross-session waits are clock arithmetic on one virtual timeline: a
    coalesced waiter is served from the instant its entry's recording
    settled, a share group's recordings take turns in decision order, and a
    failed recording promotes its earliest waiter to recorder from the
    failure instant. Signed blobs are therefore a function of the key and
    the decision sequence alone. *)

type key = int64

val runtime_version : string
(** The GPU-stack identity baked into every cache key (the image name of
    {!Cloudvm.default_image}). *)

val cache_key : cfg:Mode.config -> sku:Grt_gpu.Sku.t -> net:Grt_mlfw.Network.t -> key
(** FNV-1a over (network, SKU, runtime version, recording-format mode
    flags). Wire-invariant knobs (dirty tracking) are excluded. *)

val key_label : cfg:Mode.config -> sku:Grt_gpu.Sku.t -> net:Grt_mlfw.Network.t -> string
(** Human-readable form of the key's components. *)

val recording_seed : key -> int64
(** The seed recordings under [key] run with. Key-derived — not
    client-derived — so the cached blob is a deterministic function of the
    key, whichever client triggers the recording. *)

type client_spec = {
  client_id : int;  (** unique per fleet *)
  arrival_ns : int64;  (** global virtual arrival time *)
  net : Grt_mlfw.Network.t;
  sku : Grt_gpu.Sku.t;
  profile : Grt_net.Profile.t;
  cfg : Mode.config;
  inject_fault_after : int option;
      (** armed only if this client ends up recording *)
}

type outcome =
  | Recorded of Orchestrate.record_outcome  (** this client ran the dry run *)
  | Cache_hit  (** served from a resident blob *)
  | Coalesced  (** waited on an in-flight recording, then served *)
  | Failed of string

val outcome_name : outcome -> string

val served : outcome -> bool
(** [Cache_hit] or [Coalesced]. *)

type session_report = {
  spec : client_spec;
  key : key;
  label : string;
  outcome : outcome;
  turnaround_s : float;
      (** session-clock time from arrival to served/recorded, including any
          coalescing wait *)
  blob_bytes : int;
  counters : Grt_sim.Metrics.t;  (** this session's counter store *)
}

type t

val create : ?cache_capacity:int -> unit -> t
(** [cache_capacity] bounds resident entries (LRU by decision-time touch
    order, preferring victims idle since before the current run); 0
    (default) = unbounded. Per-key shared stores and per-group histories
    survive eviction — only the signed blob is dropped. *)

type run_stats = {
  rs_virtual_ns : int64;
      (** fleet makespan on the virtual timeline: the latest
          [arrival + turnaround] of the run *)
  rs_yields : int;
      (** always 0: no session is suspended. Kept because the end-to-end
          benchmark reads it. *)
  rs_switches : int;
      (** always 0: no session is resumed. Kept because the end-to-end
          benchmark reads it. *)
}

val run : ?observe:bool -> t -> client_spec list -> session_report list * run_stats
(** Process a fleet. Clients are ordered by (arrival, id) and every cache
    decision is taken in that order first; then each session runs to
    completion in decision order. Turnarounds include real waiting on the
    shared timeline:
    - a recorder (planned, or a promoted waiter) starts no earlier than
      the finish of the previous recording of its (network, SKU) share
      group in this run;
    - a [Coalesced] session is served no earlier than its entry's
      successful recording settled;
    - a waiter promoted after a failed recording re-records no earlier
      than the failure.
    Reports come back in arrival order. The service may be reused across
    runs — the cache and shared stores persist.

    Raises [Failure] naming the key or client if a run ends with an entry
    still in flight or with a client that has no report or more than one
    (duplicate [client_id]s).

    [observe] (default false) turns on the fleet observability plane for
    this run: per-session span tracers (one Perfetto track each, see
    {!fleet_tracks}), service-phase spans/markers, and the SLO histogram
    set exposed via {!observation}. Observation is write-only — outcomes,
    blobs and per-session counters are identical with it on or off. *)

val aggregate : t -> session_report list -> Grt_sim.Metrics.t
(** Fleet-wide counter store: every session's counters merged
    ({!Grt_sim.Metrics.merge_into}) plus the service's own [svc.*]
    counters. *)

val service_counters : t -> Grt_sim.Metrics.t
(** The service's own counters ([svc.sessions], [svc.cache_hits],
    [svc.coalesced], [svc.recordings], [svc.evictions], [svc.failures],
    [svc.cache_misses] and [svc.promotions]). *)

val service_trace : t -> Grt_sim.Trace.t
(** The service's always-on bounded post-mortem ring (topic ["service"]):
    cache evictions, waiter promotions and entry re-arms as typed payloads,
    timestamped on the service-plane clock. Dump it next to the link/shim
    rings when a fleet run fails. *)

type stats = {
  sessions : int;
  recordings : int;
  cache_hits : int;
  cache_misses : int;  (** admissions that had to record (retries included) *)
  coalesced : int;
  promotions : int;  (** waiters promoted to recorder after a failed recording *)
  failures : int;
  evictions : int;
  resident : int;  (** entries currently in the cache *)
  resident_bytes : int;  (** signed-blob bytes held *)
}

val stats : t -> stats
val hit_rate : stats -> float

(** {2 The fleet observability plane}

    Enabled per run with [run ~observe:true]; everything below reads back
    what that run collected. The plane is write-only: nothing it records
    feeds back into decisions, seeds or counters — outcomes are
    bit-identical with it on or off. *)

type track = {
  track_client : int;
  track_arrival_ns : int64;  (** shift onto the fleet-global timeline *)
  track_tracer : Grt_sim.Tracer.t;
}

type observation = {
  obs_hists : Grt_sim.Hist.set;
      (** fleet SLO series: [Svc_turnaround_us], [Svc_ttfb_us],
          [Svc_coalesce_wait_us], [Svc_turnstile_wait_us] *)
  obs_tracer : Grt_sim.Tracer.t;
      (** the service's own track: cache-lookup/evict/promotion markers on
          the service-plane clock *)
  mutable obs_tracks : track list;  (** per-session tracks, newest first *)
  mutable obs_promoted_tracks : track list;
      (** record-phase tracks of waiters promoted to recorder, newest first *)
  obs_key_ttfb : (string, Grt_sim.Hist.t) Hashtbl.t;
  obs_key_turnaround : (string, Grt_sim.Hist.t) Hashtbl.t;
}

val observation : t -> observation option
(** The last run's observation; [None] when the run was unobserved. *)

val fleet_tracks : t -> Grt_sim.Tracer.track list
(** The last observed run as Perfetto tracks: tid 0 is the service plane,
    client [i] renders on lane [i+1] offset by its arrival. Session tracks
    come in arrival order, then each promoted waiter's record tracer, on
    its client's lane, in the order the record phases began. Empty when
    unobserved. Feed to {!Grt_sim.Tracer.tracks_chrome_json}. *)

type listing_row = {
  row_key : key;
  row_label : string;
  row_resident : bool;
  row_blob_bytes : int;
  row_hits : int;
  row_recordings : int;
  row_evictions : int;
}

val cache_listing : t -> listing_row list
(** Every key the service has ever recorded (resident or evicted), sorted
    by label — the [grt_fleet]/[grt_inspect] cache-contents view. *)

type fleet_options = {
  clients : int;
  zipf_s : float;  (** popularity skew over (net, sku) ranks *)
  nets : Grt_mlfw.Network.t list;
  skus : Grt_gpu.Sku.t list;
  fleet_cfg : Mode.config;
  mean_interarrival_s : float;
  fault_fraction : float;  (** clients that arm [inject_fault_after] *)
  degraded_fraction : float;  (** clients behind a lossy channel *)
  fleet_seed : int64;
}

val fastpath_cfg : Mode.config
(** [Ours_mds] + dedup + adaptive encoding — the fleet default. *)

val default_fleet : fleet_options
(** 10k clients, Zipf 1.1 over the full Zoo × SKU catalog, 5 ms mean
    interarrival, 5% fault clients, 10% degraded channels. *)

val zipf_fleet : fleet_options -> client_spec list
(** Deterministic fleet generation from [fleet_seed]: Zipf-popular
    (net, sku) picks, a WiFi-heavy profile mix with optional degradation,
    exponential interarrivals. *)
