(** Shared context of one recording session.

    One [t] is created per recording session and threaded through the
    pipeline stages (establish → boot → attempt loop → finalize/sign)
    in place of long optional-argument plumbing: the virtual clock, the
    client energy model, the counter set with its typed {!Grt_sim.Metrics}
    view, the diagnostic {!Grt_sim.Trace} ring (shared by the link and the
    driver shim), the seeded link, and the speculation history — plus the
    mutable rollback accounting the attempt loop updates. *)

(** The session's optional knobs, gathered into one record (callers
    override individual fields of {!default_options}). *)
type options = {
  history : Spec_history.t option;
      (** speculation history to reuse; fresh when [None]. Shared across
          sessions by the recording service (§7.3). *)
  sync_store : Memsync.Store.s option;
      (** fleet-shared memsync content store (see {!Memsync.create});
          [None] for a solo session *)
  inject_fault_after : int option;
      (** corrupt the response to the [n]-th speculated commit of the first
          attempt, forcing one rollback *)
  window : int;  (** link sliding-window size; 1 = stop-and-wait *)
  trace_capacity : int option;  (** diagnostic event-ring size *)
  observe : bool;  (** create the span tracer and an observed metrics store *)
}

val default_options : options
(** No history, no shared store, no fault, window 1, default ring,
    unobserved. *)

type deferred_plan
(** The network's plan, expanded on first use: read it through {!plan}. *)

type t = {
  cfg : Mode.config;
  seed : int64;
  sku : Grt_gpu.Sku.t;
  net : Grt_mlfw.Network.t;
  deferred_plan : deferred_plan;
  granularity : [ `Monolithic | `Per_layer ];
  clock : Grt_sim.Clock.t;
  energy : Grt_sim.Energy.t;
  metrics : Grt_sim.Metrics.t;
      (** the session's one counter store; observed (it carries the
          session's histograms) iff [observe] *)
  trace : Grt_sim.Trace.t;  (** link + shim event ring, dumped on failure *)
  tracer : Grt_sim.Tracer.t option;  (** span tracer; present iff [observe] *)
  link : Grt_net.Link.t;
  history : Spec_history.t;  (** shared across attempts (and sessions, §7.3) *)
  sync_store : Memsync.Store.s option;  (** fleet-shared content store *)
  mutable inject_fault_after : int option;
      (** armed once, on the first attempt that consumes it (§7.3) *)
  mutable rollbacks : int;
  mutable rollback_s : float;
}

val create :
  ?options:options ->
  ?clock:Grt_sim.Clock.t ->
  cfg:Mode.config ->
  profile:Grt_net.Profile.t ->
  sku:Grt_gpu.Sku.t ->
  net:Grt_mlfw.Network.t ->
  seed:int64 ->
  granularity:[ `Monolithic | `Per_layer ] ->
  unit ->
  t
(** Build the session infrastructure: clock, energy, metrics,
    trace ring, and the link (fault-seeded from [seed]). [options] defaults
    to {!default_options}; with [observe] unset the default path carries
    [None]s and stays byte-identical to an unobserved build.

    The network plan is not expanded here but on the first {!plan} call,
    and the trace ring grows on demand, so a context that only serves a
    cached blob stays cheap to build.

    [clock] threads an existing session clock instead of creating a fresh
    one — the recording service builds a promoted waiter's recording
    context on the clock its coalesced wait already advanced. All time
    accounting
    (energy integration, link costs, watchdogs) is delta-based, so a
    context built on an already-advanced clock behaves identically to one
    starting at zero. *)

val plan : t -> Grt_mlfw.Network.plan
(** The session network's expanded plan ({!Grt_mlfw.Network.expand}),
    built on the first call and kept. Only the recording stages read it
    (the dry run and the slot table at signing), so a session that serves
    a cached blob never expands its network. *)

val plan_expanded : t -> bool
(** Whether {!plan} has been called on this context yet. *)

val session_salt : t -> int64
(** The GPU's nondeterministic-state salt: a property of the physical
    device, stable across rollback attempts within a session. *)

val charge_rollback : t -> float -> unit
(** Account one rollback of the given cost and advance the clock by it. *)
