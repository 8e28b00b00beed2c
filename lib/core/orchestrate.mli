(** End-to-end GR-T sessions (§3.1's workflow).

    [record] runs the whole online-recording pipeline: attested channel
    establishment, GPU isolation on the client, the cloud GPU stack dry-
    running the workload against the client GPU through DriverShim/GPUShim,
    misprediction recovery if speculation goes wrong, recording signing and
    download. [replay_recording] then reproduces the computation inside the
    client TEE on fresh inputs without touching the network. *)

val cloud_signing_key : Grt_tee.Crypto.key

val cloud_measurement : Grt_tee.Attestation.measurement
(** Measurement of {!Cloudvm.default_image}, which [record] boots. *)

type record_outcome = {
  blob : bytes;  (** signed recording, as downloaded by the client *)
  recording : Recording.t;
  total_s : float;  (** end-to-end recording delay *)
  client_energy_j : float;
  rollbacks : int;
  rollback_s : float;  (** time spent in misprediction recovery *)
  counters : Grt_sim.Metrics.t;
      (** the session's counter store: every count of the session (blocking
          RTTs, sync bytes, commits, speculation and its Fig. 8 categories,
          register accesses, polls, retransmits, link-down recoveries) read
          by its {!Grt_sim.Metrics.key}. Counts cover the whole session,
          every attempt after a rollback or link-down included. *)
  segments : bytes list;
      (** per-layer recording segments when recorded with [`Per_layer]
          granularity (Figure 2); empty otherwise *)
  tracer : Grt_sim.Tracer.t option;
      (** the session's span tracer, when recorded with [observe] — export
          with {!Grt_sim.Tracer.to_chrome_json} / summarize in a report *)
  hists : Grt_sim.Hist.set option;  (** latency/size histograms, iff [observe] *)
}

val failure_dump : Session_ctx.t -> string
(** The post-mortem text a failed {!Pipeline.run} prints to stderr: the
    session's retained event ring, grouped by topic in first-appearance
    order and oldest-first within each; [""] when the ring is empty. *)

(** One recording session as a steppable value: establish → boot → attempt
    loop → finalize/sign held as re-entrant per-session state instead of a
    call stack, so callers can step it stage by stage. [run] produces
    byte-identical blobs, counters and clock readings to a direct
    {!record} call. *)
module Pipeline : sig
  type t

  val create : Session_ctx.t -> t

  val step : t -> [ `More | `Done of record_outcome ]
  (** Advance one stage. [`Done] is idempotent. Exceptions out of a stage
      leave the pipeline at the failed stage (callers own the post-mortem —
      {!run} dumps the trace ring). *)

  val run : t -> record_outcome
  (** Step to completion; dumps the diagnostic trace ring and re-raises if
      a stage fails. *)

  val ctx : t -> Session_ctx.t

  val stage_name : t -> string
  (** ["created"], ["established"], ["booted"], ["attempted"] or
      ["finished"] — for progress surfaces. *)
end

val serve_cached : Session_ctx.t -> blob:bytes -> unit
(** The cache-hit path: establish the attested channel, download the
    already-signed [blob] over the session's link, and verify it — no dry
    run. Raises [Failure] if verification fails. *)

val serve_resident : Session_ctx.t -> Recording.resident -> unit
(** [serve_cached] over a {!Recording.resident}: the same establishment
    and download bytes, and the resident's verdict
    ({!Recording.verify_resident}), so a re-serve hashes and compares
    nothing. The recording service serves through it. *)

val record :
  ?history:Drivershim.history ->
  ?inject_fault_after:int ->
  ?inject_outage_after:int ->
  ?config:Mode.config ->
  ?granularity:[ `Monolithic | `Per_layer ] ->
  ?window:int ->
  ?trace_capacity:int ->
  ?observe:bool ->
  profile:Grt_net.Profile.t ->
  mode:Mode.t ->
  sku:Grt_gpu.Sku.t ->
  net:Grt_mlfw.Network.t ->
  seed:int64 ->
  unit ->
  record_outcome
(** Runs one record session on a fresh virtual clock. [history] carries
    speculation history across workloads (§7.3). [inject_fault_after n]
    corrupts the response to the [n]-th speculated commit of the first
    attempt, forcing one rollback. [inject_outage_after k] makes the link's
    [k]-th exchange deterministically time out all retransmission attempts,
    forcing a [Link_down] recovery. [config] overrides the default knobs
    for [mode] (ablations); a [config] for another mode raises
    [Invalid_argument]. [window] (default 1 = stop-and-wait) sets the
    link's sliding-window size; above 1 it also caps the speculative commits
    in flight. [trace_capacity] sizes the diagnostic event
    ring dumped on failure. [observe] (default false) turns on the span
    tracer and histograms, surfaced in the outcome; observation never moves
    the virtual clock, so observed and default runs produce identical
    recordings, counters and energy. Window size and fault draws may move
    the clock, energy and counters — never the signed recording bytes. *)

type replay_outcome = {
  r : Replayer.result;
  setup_s : float;  (** verification + data injection, before stimuli *)
}

val replay_segments :
  sku:Grt_gpu.Sku.t ->
  blobs:bytes list ->
  input:float array ->
  params:(string * float array) list ->
  seed:int64 ->
  unit ->
  replay_outcome
(** Composable replay of per-layer segments on a fresh client (Figure 2). *)

val replay_recording :
  sku:Grt_gpu.Sku.t ->
  blob:bytes ->
  input:float array ->
  params:(string * float array) list ->
  seed:int64 ->
  unit ->
  replay_outcome
(** Replay on a fresh client (own clock and energy meter), as an app inside
    the TEE would. Raises {!Replayer.Rejected} / {!Replayer.Divergence}. *)

val client_attestation_key : Grt_tee.Crypto.key
(** The client TEE's signing identity for replay-attestation tokens. *)

val compile_recording : ?tracer:Grt_sim.Tracer.t -> blob:bytes -> unit -> Replay_prog.t
(** Header-verify and lower a signed blob once (see {!Replay_prog}); chunk
    hashes are checked streamingly at execution. Raises {!Replayer.Rejected}
    on a bad blob. *)

val replay_gpushim :
  sku:Grt_gpu.Sku.t -> seed:int64 -> unit -> Gpushim.t * Grt_sim.Clock.t * Grt_sim.Energy.t
(** A fresh client session (own clock and energy meter) configured exactly
    as {!replay_recording} would build it — for batch replays that reuse
    one session across many {!Replayer.replay_compiled} calls. *)

val replay_compiled :
  sku:Grt_gpu.Sku.t ->
  prog:Replay_prog.t ->
  input:float array ->
  params:(string * float array) list ->
  seed:int64 ->
  unit ->
  replay_outcome
(** {!replay_recording}'s fast path: same fresh-client construction, but
    executing an already-compiled program. *)
