module Link = Grt_net.Link

type options = {
  history : Spec_history.t option;
  sync_store : Memsync.Store.s option;
  inject_fault_after : int option;
  window : int;
  trace_capacity : int option;
  observe : bool;
}

let default_options =
  {
    history = None;
    sync_store = None;
    inject_fault_after = None;
    window = 1;
    trace_capacity = None;
    observe = false;
  }

type deferred_plan = Grt_mlfw.Network.plan Lazy.t

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
  trace : Grt_sim.Trace.t;
  tracer : Grt_sim.Tracer.t option;
  link : Link.t;
  history : Spec_history.t;
  sync_store : Memsync.Store.s option;
  mutable inject_fault_after : int option;
  mutable rollbacks : int;
  mutable rollback_s : float;
}

let create ?(options = default_options) ?clock ~cfg ~profile ~sku ~net ~seed ~granularity () =
  let clock = match clock with Some c -> c | None -> Grt_sim.Clock.create () in
  let energy = Grt_sim.Energy.create clock in
  let metrics = Grt_sim.Metrics.create ~observed:options.observe () in
  let trace = Grt_sim.Trace.create ?capacity:options.trace_capacity clock in
  let tracer = if options.observe then Some (Grt_sim.Tracer.create clock) else None in
  (* The link's fault draws derive from the session seed so a lossy run is
     exactly reproducible. *)
  let link =
    Link.create ~clock ~energy ~metrics ~trace ?tracer
      ~seed:(Grt_util.Hashing.combine seed 0x6C696E6BL)
      ~window:options.window profile
  in
  {
    cfg;
    seed;
    sku;
    net;
    deferred_plan = lazy (Grt_mlfw.Network.expand net);
    granularity;
    clock;
    energy;
    metrics;
    trace;
    tracer;
    link;
    history = (match options.history with Some h -> h | None -> Spec_history.create ());
    sync_store = options.sync_store;
    inject_fault_after = options.inject_fault_after;
    rollbacks = 0;
    rollback_s = 0.;
  }

let plan t = Lazy.force t.deferred_plan
let plan_expanded t = Lazy.is_val t.deferred_plan

let session_salt t = Grt_util.Hashing.combine t.seed 0x5a17L

let charge_rollback t cost =
  t.rollbacks <- t.rollbacks + 1;
  t.rollback_s <- t.rollback_s +. cost;
  Grt_sim.Clock.advance_s t.clock cost
