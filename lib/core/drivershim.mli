(** DriverShim — the cloud half of the recorder (§4, §5).

    Sits at the bottom of the cloud VM's GPU stack, interposing every
    register access the (instrumented) driver makes and forwarding it to the
    client GPU over the network, while logging everything into the
    recording. Implements, per the active {!Mode.config}:

    - {b deferral}: per-thread queues of register accesses executed
      symbolically, committed in batches at control-dependency, kernel-API,
      explicit-delay and hot-function boundaries (§4.1);
    - {b speculation}: commits whose register-read outcomes were identical in
      the last [k] occurrences at the same driver site go out asynchronously
      with predicted values; validation happens when the response lands, and
      mismatches raise {!Mispredict} so the orchestrator can roll both sides
      back (§4.2). Speculative values are tainted; commits or dumps that
      depend on them stall until validation, so speculative state never
      reaches the client;
    - {b polling offload}: simple polling loops ship to the client in one
      round trip (speculated when history permits) (§4.3);
    - {b memory synchronization}: metastate dumps ship right before each
      job-start register write; client dumps come back with each forwarded
      interrupt (§5). *)

exception
  Mispredict of {
    site : string;
    reg : int;
    predicted : int64;
    actual : int64;
    valid_log : Recording.entry list;
        (** interactions validated before the failing commit — the prefix
            both parties replay locally to fast-forward (§4.2) *)
  }

exception Recovery_diverged of string
(** Re-export of {!Recovery.Recovery_diverged}: re-execution departed from
    the validated log during recovery — indicates nondeterminism the
    recorder failed to forestall. *)

(** The driver routine a speculated commit came from (Fig. 8). *)
type category = Init | Interrupt | Power | Polling | Other

val category_name : category -> string
val all_categories : category list

val category_key : category -> Grt_sim.Metrics.key
(** The counter that tallies the category's speculated commits
    ([spec.cat.*]). The five sum to [commits.speculated]. *)

(** Speculation history — keyed by driver commit site. Sharable across
    record runs of different workloads (§7.3 "retaining register access
    history in between"). The equation with {!Spec_history.t} is public so
    a {!Session_ctx} can carry the table without depending on this
    module. *)
type history = Spec_history.t

val fresh_history : unit -> history

type t

val create :
  cfg:Mode.config ->
  link:Grt_net.Link.t ->
  gpushim:Gpushim.t ->
  cloud_mem:Grt_gpu.Mem.t ->
  metrics:Grt_sim.Metrics.t ->
  ?trace:Grt_sim.Trace.t ->
  ?tracer:Grt_sim.Tracer.t ->
  ?history:history ->
  ?sync_store:Memsync.Store.s ->
  ?wire_overhead:int ->
  ?replay_prefix:Recording.entry list ->
  unit ->
  t
(** [replay_prefix] puts the shim in recovery mode: until the prefix is
    exhausted, register accesses are served from the validated log — the
    client feeds the recorded stimuli to its physical GPU and the cloud
    feeds the recorded responses to the driver, with no network traffic
    (§4.2's rollback). Once the prefix runs dry the shim goes live.
    [metrics] is the session's counter store and the shim's only tally:
    register accesses, commits, speculation (by {!category}), polls and
    memory sync all count there, so a store shared by every attempt of a
    session counts the whole session. An observed store also gets commit
    batch sizes, speculation validation latencies and memsync wire sizes
    ({!Grt_sim.Metrics.observe}). [trace] receives commit / speculate /
    rollback events under topic ["shim"]; it defaults to a fresh ring on
    the link's clock. [tracer] gets nested spans per commit / validation /
    offloaded poll; it defaults to off. *)

val backend : t -> Grt_driver.Backend.t
(** The instrumented-driver interface. *)

val downlink : t -> Memsync.t
(** Cloud→client sync state; the orchestrator registers regions here (and in
    the GPUShim uplink). *)

val finalize : t -> unit
(** Commit any leftover accesses and drain outstanding speculative commits.
    Must be called before reading the log. *)

val entries : t -> Recording.entry list
(** The interaction log, in order. *)

val validated_prefix : t -> Recording.entry list
(** The longest log prefix whose client responses have been validated: the
    full log when no speculative commit is outstanding, else everything
    before the oldest one. This is the safe resume point after a
    [Grt_net.Link.Link_down], mirroring a misprediction's [valid_log]. *)

val mark_segment : t -> unit
(** Note a recording-segment boundary at the current log position — the
    per-layer granularity of Figure 2 (a developer choice, §2.3). *)

val segment_marks : t -> int list
(** Boundary positions, in order. *)

val inject_fault_after : t -> int -> unit
(** Corrupt the client's response to the [n]-th speculated commit (counted
    from now) — the §7.3 misprediction experiment. *)
