module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics
module Hist = Grt_sim.Hist
module Tracer = Grt_sim.Tracer
module Trace = Grt_sim.Trace
module Sku = Grt_gpu.Sku
module Network = Grt_mlfw.Network
module Profile = Grt_net.Profile
module Hashing = Grt_util.Hashing
module Ctx = Session_ctx

type key = int64

let runtime_version = Cloudvm.default_image.Cloudvm.image_name

(* ---- cache key derivation ----

   A recording is reusable across clients exactly when it was produced by
   the same GPU stack for the same workload on the same silicon with the
   same wire format. The key folds each of those dimensions with FNV-1a;
   only the recording-format-bearing mode flag participates. It is folded
   twice, and labelled "+dedup+adaptive": the format was once two flags
   that were always set together, and every key, recording seed and cached
   blob derived from them stays put. *)

let cache_key ~(cfg : Mode.config) ~(sku : Sku.t) ~(net : Network.t) =
  let h = Hashing.fnv1a_string net.Network.name in
  let h = Hashing.combine h (Hashing.fnv1a_string sku.Sku.name) in
  let h = Hashing.combine h (Hashing.fnv1a_string runtime_version) in
  let h = Hashing.combine h (Hashing.fnv1a_string (Mode.name cfg.Mode.mode)) in
  let tagged = if cfg.Mode.memsync_tagged then 1L else 0L in
  Hashing.combine (Hashing.combine h tagged) tagged

let key_label ~(cfg : Mode.config) ~(sku : Sku.t) ~(net : Network.t) =
  Printf.sprintf "%s/%s/%s/%s%s" net.Network.name sku.Sku.name runtime_version
    (Mode.name cfg.Mode.mode)
    (if cfg.Mode.memsync_tagged then "+dedup+adaptive" else "")

(* Recording sessions run under a key-derived seed, not a client-derived
   one: the signed blob depends on the seed (device salts, dry-run data),
   so deriving it from the key makes the cached artifact a deterministic
   function of the key — whichever client happens to trigger the recording,
   and however many times an evicted key is re-recorded. *)
let recording_seed key = Hashing.combine key 0x7265636f7264L (* "record" *)

let serve_seed key ~client_id = Hashing.combine (recording_seed key) (Int64.of_int client_id)

(* ---- clients ---- *)

type client_spec = {
  client_id : int;
  arrival_ns : int64;
  net : Network.t;
  sku : Sku.t;
  profile : Profile.t;
  cfg : Mode.config;
  inject_fault_after : int option;
}

type outcome =
  | Recorded of Orchestrate.record_outcome
  | Cache_hit
  | Coalesced
  | Failed of string

let outcome_name = function
  | Recorded _ -> "recorded"
  | Cache_hit -> "cache_hit"
  | Coalesced -> "coalesced"
  | Failed _ -> "failed"

let served = function Cache_hit | Coalesced -> true | Recorded _ | Failed _ -> false

type session_report = {
  spec : client_spec;
  key : key;
  label : string;
  outcome : outcome;
  turnaround_s : float;
  blob_bytes : int;
  counters : Metrics.t;
}

(* ---- service state ---- *)

(* Per-key state that outlives cache residency: eviction drops the signed
   blob, not the fleet's knowledge. The shared memsync store models what
   the client population already holds, so a re-recording after eviction
   ships mostly hash references; the stats feed the cache listing. *)
type keyed = {
  key : key;
  label : string;
  sync_store : Memsync.Store.s;
  mutable hits : int;  (* cache hits + coalesced serves *)
  mutable recordings : int;
  mutable evictions : int;
}

type entry = {
  keyed : keyed;
  mutable blob : Recording.resident option;  (* the published recording *)
  mutable inflight : bool;
  mutable settled_ns : int64;  (* global instant the latest recording ended *)
  mutable settled_by : int;  (* the client that ran it *)
  mutable last_touch : int;  (* decision sequence number (LRU order) *)
  mutable touch_epoch : int;  (* run counter at the last touch *)
}

(* ---- observability plane ----

   The fleet plane is strictly write-only with respect to outcomes: its
   histograms and tracer read clocks without moving them, and nothing here
   feeds back into decisions, seeds or session counters — so a run with the
   plane enabled is outcome-identical to one without (the tests pin this). *)

type track = {
  track_client : int;
  track_arrival_ns : int64;
  track_tracer : Tracer.t;
}

type observation = {
  obs_hists : Hist.set;  (* fleet-wide SLO series (turnaround, TTFB, waits) *)
  obs_tracer : Tracer.t;  (* the service's own track: lookups, evicts, promotions *)
  mutable obs_tracks : track list;  (* per-session span tracks, newest first *)
  mutable obs_promoted_tracks : track list;
      (* record-phase tracks of promoted waiters, newest first *)
  obs_key_ttfb : (string, Hist.t) Hashtbl.t;  (* label -> TTFB series *)
  obs_key_turnaround : (string, Hist.t) Hashtbl.t;  (* label -> turnaround series *)
}

type t = {
  capacity : int;  (* resident entries; 0 = unbounded *)
  cache : (key, entry) Hashtbl.t;
  keyed_tbl : (key, keyed) Hashtbl.t;
  histories : (string, Spec_history.t) Hashtbl.t;
      (* (net, sku) -> speculation history shared across all sessions of
         that pair, whatever their mode flags (§7.3) *)
  svc : Metrics.t;
  svc_clock : Clock.t;
      (* service-plane timeline: advanced to each admission's arrival and
         each promotion's failure instant, so service events carry
         fleet-global timestamps *)
  svc_trace : Trace.t;
      (* always-on bounded post-mortem ring (topic "service"): evictions,
         waiter promotions, re-arms — dumped when a fleet run fails *)
  mutable touch_seq : int;
  mutable run_epoch : int;  (* bumped per [run]; feeds eviction preference *)
  mutable obs : observation option;  (* present for the duration of an observed run *)
}

let create ?(cache_capacity = 0) () =
  if cache_capacity < 0 then invalid_arg "Service.create: negative capacity";
  let svc_clock = Clock.create () in
  {
    capacity = cache_capacity;
    cache = Hashtbl.create 64;
    keyed_tbl = Hashtbl.create 64;
    histories = Hashtbl.create 16;
    svc = Metrics.create ();
    svc_clock;
    svc_trace = Trace.create ~capacity:1024 svc_clock;
    touch_seq = 0;
    run_epoch = 0;
    obs = None;
  }

let service_counters t = t.svc
let service_trace t = t.svc_trace
let observation t = t.obs
let obs_tracer t = match t.obs with Some o -> Some o.obs_tracer | None -> None

let key_hist tbl label =
  match Hashtbl.find_opt tbl label with
  | Some h -> h
  | None ->
    let h = Hist.create () in
    Hashtbl.add tbl label h;
    h

(* Sample a session-local duration (ns so far on the session clock) into a
   fleet series, in µs, plus the per-key table when one is given. *)
let obs_sample t ?label hkey ns =
  match t.obs with
  | None -> ()
  | Some o ->
    let us = Int64.to_int (Int64.div ns 1_000L) in
    Hist.record o.obs_hists hkey us;
    (match label with
    | Some (tbl, l) -> Hist.observe (key_hist (tbl o) l) us
    | None -> ())

let obs_ttfb t (e : entry) ctx =
  obs_sample t
    ~label:((fun o -> o.obs_key_ttfb), e.keyed.label)
    Hist.Svc_ttfb_us
    (Clock.now_ns ctx.Ctx.clock)

let track_of t (spec : client_spec) ctx =
  match (t.obs, ctx.Ctx.tracer) with
  | Some _, Some tr ->
    Some { track_client = spec.client_id; track_arrival_ns = spec.arrival_ns; track_tracer = tr }
  | _ -> None

(* Perfetto lanes: tid 0 is the service plane, client [i] renders on lane
   [i + 1], shifted onto global time by its arrival. Session tracks come in
   arrival order; a promoted waiter's record-phase tracer follows them as
   a second track on its client's lane. *)
let fleet_tracks t =
  match t.obs with
  | None -> []
  | Some o ->
    let lane tr =
      {
        Tracer.track_tid = tr.track_client + 1;
        track_name = Printf.sprintf "client-%d" tr.track_client;
        track_offset_ns = tr.track_arrival_ns;
        track_tracer = tr.track_tracer;
      }
    in
    {
      Tracer.track_tid = 0;
      track_name = "service";
      track_offset_ns = 0L;
      track_tracer = o.obs_tracer;
    }
    :: List.rev_map lane o.obs_tracks
    @ List.rev_map lane o.obs_promoted_tracks

let share_group_of ~(net : Network.t) ~(sku : Sku.t) = net.Network.name ^ "|" ^ sku.Sku.name
let share_group (spec : client_spec) = share_group_of ~net:spec.net ~sku:spec.sku

let history_for t spec =
  let g = share_group spec in
  match Hashtbl.find_opt t.histories g with
  | Some h -> h
  | None ->
    let h = Spec_history.create () in
    Hashtbl.add t.histories g h;
    h

let keyed_for t key ~label =
  match Hashtbl.find_opt t.keyed_tbl key with
  | Some k -> k
  | None ->
    let k =
      { key; label; sync_store = Memsync.Store.create (); hits = 0; recordings = 0; evictions = 0 }
    in
    Hashtbl.add t.keyed_tbl key k;
    k

(* ---- arrival-time decisions ----

   The cache decision for every client is taken at its *arrival*, in
   arrival order, before any session work runs. Eviction, recorder
   identity and the order in which the shared stores mutate are therefore
   functions of the arrival sequence alone. *)

type decision =
  | D_serve of entry  (* blob resident *)
  | D_wait of entry  (* recording in flight: coalesce onto it *)
  | D_record of entry  (* this client triggers the recording *)

let evict_if_full t ~for_client =
  if t.capacity > 0 && Hashtbl.length t.cache >= t.capacity then begin
    (* LRU victim, preferring entries idle since before this run: an entry
       touched this run may carry a planned recording or coalesced
       waiters, so it is the worse victim. When every resident entry is
       active this run this degrades to plain LRU, and evicting an entry
       mid-recording stays safe: its waiters keep their reference and are
       served when it settles, while a later same-key miss re-records
       through the key-shared stores. *)
    let worse (a : entry) (b : entry) =
      (a.touch_epoch = t.run_epoch, a.last_touch) > (b.touch_epoch = t.run_epoch, b.last_touch)
    in
    let victim =
      Hashtbl.fold
        (fun _ e acc -> match acc with Some b when worse e b -> acc | _ -> Some e)
        t.cache None
    in
    match victim with
    | Some e ->
      Hashtbl.remove t.cache e.keyed.key;
      e.keyed.evictions <- e.keyed.evictions + 1;
      Metrics.incr t.svc Metrics.Svc_evictions;
      let blob_bytes = match e.blob with Some b -> Recording.resident_length b | None -> 0 in
      Trace.event t.svc_trace
        (Trace.Evict { label = e.keyed.label; client = for_client; blob_bytes });
      Tracer.instant_opt (obs_tracer t) ~cat:Tracer.Svc_evict
        ~args:
          [
            ("label", e.keyed.label);
            ("for", Printf.sprintf "client-%d" for_client);
            ("blob_bytes", string_of_int blob_bytes);
          ]
        "evict"
    | None -> ()
  end

let decision_name = function D_serve _ -> "serve" | D_wait _ -> "wait" | D_record _ -> "record"
let decision_entry = function D_serve e | D_wait e | D_record e -> e

let decide t (spec : client_spec) =
  (* Admissions are examined in arrival order (the plan pass sorts), so the
     service clock only ever moves forward here. *)
  Clock.advance_to t.svc_clock spec.arrival_ns;
  let key = cache_key ~cfg:spec.cfg ~sku:spec.sku ~net:spec.net in
  t.touch_seq <- t.touch_seq + 1;
  let touch = t.touch_seq in
  let touch_entry e =
    e.last_touch <- touch;
    e.touch_epoch <- t.run_epoch
  in
  let d =
    match Hashtbl.find_opt t.cache key with
    | Some e when e.blob <> None ->
      touch_entry e;
      D_serve e
    | Some e when e.inflight ->
      touch_entry e;
      D_wait e
    | Some e ->
      (* resident but its recording failed: this client retries *)
      touch_entry e;
      e.inflight <- true;
      Metrics.incr t.svc Metrics.Svc_cache_misses;
      Trace.event t.svc_trace (Trace.Rearm { label = e.keyed.label; client = spec.client_id });
      D_record e
    | None ->
      evict_if_full t ~for_client:spec.client_id;
      let keyed = keyed_for t key ~label:(key_label ~cfg:spec.cfg ~sku:spec.sku ~net:spec.net) in
      let e =
        {
          keyed;
          blob = None;
          inflight = true;
          settled_ns = 0L;
          settled_by = spec.client_id;
          last_touch = touch;
          touch_epoch = t.run_epoch;
        }
      in
      Hashtbl.replace t.cache key e;
      Metrics.incr t.svc Metrics.Svc_cache_misses;
      D_record e
  in
  Tracer.instant_opt (obs_tracer t) ~cat:Tracer.Svc_cache_lookup
    ~args:
      [
        ("client", string_of_int spec.client_id);
        ("key", (decision_entry d).keyed.label);
        ("decision", decision_name d);
      ]
    "cache-lookup";
  d

(* ---- session bodies ----

   A session's context is built when the session starts and dropped when it
   ends, so at most one recording's working set is live at a time. *)

let serve_ctx ~clock t (spec : client_spec) (e : entry) =
  let options = { Ctx.default_options with Ctx.observe = t.obs <> None } in
  Ctx.create ~options ~clock ~cfg:spec.cfg ~profile:spec.profile ~sku:spec.sku ~net:spec.net
    ~seed:(serve_seed e.keyed.key ~client_id:spec.client_id)
    ~granularity:`Monolithic ()

let record_ctx ~clock t (spec : client_spec) (e : entry) =
  let options =
    {
      Ctx.default_options with
      Ctx.history = Some (history_for t spec);
      sync_store = Some e.keyed.sync_store;
      inject_fault_after = spec.inject_fault_after;
      observe = t.obs <> None;
    }
  in
  Ctx.create ~options ~clock ~cfg:spec.cfg ~profile:spec.profile ~sku:spec.sku ~net:spec.net
    ~seed:(recording_seed e.keyed.key) ~granularity:`Monolithic ()

(* Build a session's context on [clock] and register its track. *)
let start_session ~clock t spec d =
  let ctx =
    match d with
    | D_record e -> record_ctx ~clock t spec e
    | D_serve e | D_wait e -> serve_ctx ~clock t spec e
  in
  (match (t.obs, track_of t spec ctx) with
  | Some o, Some track -> o.obs_tracks <- track :: o.obs_tracks
  | _ -> ());
  ctx

let report_of ctx (spec : client_spec) (e : entry) outcome ~blob_bytes =
  {
    spec;
    key = e.keyed.key;
    label = e.keyed.label;
    outcome;
    turnaround_s = Grt_sim.Clock.now_s ctx.Ctx.clock;
    blob_bytes;
    counters = ctx.Ctx.metrics;
  }

(* Serve a resident blob over [ctx]: attested establishment + download +
   verification — everything of a session except the dry run. A serve can
   fail live (ARQ collapse on a degraded channel, verification failure):
   keep the fleet running and report the client as failed. *)
let serve t spec (e : entry) ctx ~coalesced =
  let resident = Option.get e.blob in
  match
    Tracer.span_opt ctx.Ctx.tracer ~cat:Tracer.Svc_serve_cached
      ~args:[ ("key", e.keyed.label) ]
      ~name:"serve-cached"
      (fun () -> Orchestrate.serve_resident ctx resident)
  with
  | () ->
    e.keyed.hits <- e.keyed.hits + 1;
    Metrics.incr t.svc (if coalesced then Metrics.Svc_coalesced else Metrics.Svc_cache_hits);
    report_of ctx spec e
      (if coalesced then Coalesced else Cache_hit)
      ~blob_bytes:(Recording.resident_length resident)
  | exception exn ->
    Metrics.incr t.svc Metrics.Svc_failures;
    report_of ctx spec e (Failed (Printexc.to_string exn)) ~blob_bytes:0

(* Record under the key-derived seed and publish the blob into the entry. *)
let record_into t spec (e : entry) ctx =
  let history = history_for t spec in
  Spec_history.new_epoch history;
  let cross0 = Spec_history.cross_hits history in
  match
    Tracer.span_opt ctx.Ctx.tracer ~cat:Tracer.Svc_record
      ~args:[ ("key", e.keyed.label) ]
      ~name:"record"
      (fun () -> Orchestrate.Pipeline.run (Orchestrate.Pipeline.create ctx))
  with
  | outcome ->
    let cross = Spec_history.cross_hits history - cross0 in
    if cross > 0 then Metrics.add ctx.Ctx.metrics Metrics.Spec_cross_hits cross;
    (* Lent: the outcome reaches the caller only when [run] returns, and
       [run] makes the residents that are left its own first. *)
    e.blob <- Some (Recording.resident_lent outcome.Orchestrate.blob);
    e.inflight <- false;
    e.keyed.recordings <- e.keyed.recordings + 1;
    Metrics.incr t.svc Metrics.Svc_recordings;
    report_of ctx spec e (Recorded outcome) ~blob_bytes:(Bytes.length outcome.Orchestrate.blob)
  | exception exn ->
    e.inflight <- false;
    Metrics.incr t.svc Metrics.Svc_failures;
    report_of ctx spec e (Failed (Printexc.to_string exn)) ~blob_bytes:0

(* ---- execution ----

   After the plan pass every session runs to completion on its own clock,
   one after another in decision order. A session's global instant is
   [arrival + Clock.now clock]. Sessions meet at three points only, and
   each is a [Clock.advance_to] (a no-op when the instant is already past):
   - a recorder waits at its share group's turnstile until the previous
     recording of the group in this run has finished: group recordings
     mutate the shared speculation history and stores, so they take turns
     in decision order;
   - a coalesced waiter is served from the instant its entry's successful
     recording settled;
   - a failed recording re-arms its entry: the earliest waiter still
     queued on it is promoted to recorder, re-records from the failure
     instant at its own decision position, and the waiters behind it are
     served when that recording settles.
   Every instant a session needs belongs to a session earlier in decision
   order, so it is known when the session runs. *)

type promotion = {
  p_failed_ns : int64;  (* when the replaced recording failed *)
  p_takeover_ns : int64;  (* when the promoted waiter's record phase began *)
  p_label : string;
  p_failed : int;
  p_promoted : int;
  p_track : track option;
}

type exec = {
  group_free_ns : (string, int64) Hashtbl.t;
      (* share group -> finish instant of its latest recording this run *)
  mutable promotions : promotion list;  (* newest first *)
  mutable makespan_ns : int64;
}

let global_ns (spec : client_spec) clock = Int64.add spec.arrival_ns (Clock.now_ns clock)

(* Take the share group's turnstile, then record. *)
let record_in_turn t x (spec : client_spec) (e : entry) ctx =
  let g = share_group spec in
  let clock = ctx.Ctx.clock in
  let t0 = Clock.now_ns clock in
  Tracer.span_opt ctx.Ctx.tracer ~cat:Tracer.Svc_turnstile_wait
    ~args:[ ("group", g) ]
    ~name:"turnstile-wait"
    (fun () ->
      match Hashtbl.find_opt x.group_free_ns g with
      | Some free_ns -> Clock.advance_to clock (Int64.sub free_ns spec.arrival_ns)
      | None -> ());
  obs_sample t Hist.Svc_turnstile_wait_us (Int64.sub (Clock.now_ns clock) t0);
  obs_ttfb t e ctx;
  let r = record_into t spec e ctx in
  let fin = global_ns spec clock in
  Hashtbl.replace x.group_free_ns g fin;
  e.settled_ns <- fin;
  e.settled_by <- spec.client_id;
  r

(* A waiter on [e]. Its entry's latest recording ran earlier in decision
   order: if it succeeded the waiter is served once it settled; if it
   failed, this is the earliest waiter left and it takes over as
   recorder. *)
let wait_on t x (spec : client_spec) (e : entry) ctx =
  let clock = ctx.Ctx.clock in
  let t0 = Clock.now_ns clock in
  Tracer.span_opt ctx.Ctx.tracer ~cat:Tracer.Svc_coalesce_wait
    ~args:[ ("key", e.keyed.label) ]
    ~name:"coalesce-wait"
    (fun () -> Clock.advance_to clock (Int64.sub e.settled_ns spec.arrival_ns));
  obs_sample t Hist.Svc_coalesce_wait_us (Int64.sub (Clock.now_ns clock) t0);
  match e.blob with
  | Some _ ->
    obs_ttfb t e ctx;
    serve t spec e ctx ~coalesced:true
  | None ->
    e.inflight <- true;
    Metrics.incr t.svc Metrics.Svc_promotions;
    (* the promoted waiter re-records: a second miss on the key *)
    Metrics.incr t.svc Metrics.Svc_cache_misses;
    (* same key-derived seed and options a planned recorder uses, on the
       waiter's clock *)
    let rctx = record_ctx ~clock t spec e in
    x.promotions <-
      {
        p_failed_ns = e.settled_ns;
        p_takeover_ns = global_ns spec clock;
        p_label = e.keyed.label;
        p_failed = e.settled_by;
        p_promoted = spec.client_id;
        p_track = track_of t spec rctx;
      }
      :: x.promotions;
    record_in_turn t x spec e rctx

let run_session t x ((spec : client_spec), d) =
  let clock = Clock.create () in
  let ctx = start_session ~clock t spec d in
  let r =
    match d with
    | D_serve e ->
      obs_ttfb t e ctx;
      serve t spec e ctx ~coalesced:false
    | D_record e -> record_in_turn t x spec e ctx
    | D_wait e -> wait_on t x spec e ctx
  in
  let fin = global_ns spec clock in
  if Int64.compare fin x.makespan_ns > 0 then x.makespan_ns <- fin;
  r

(* Promotions land on the service plane in failure-instant order, and
   promoted tracks in the order their record phases began. *)
let publish_promotions t x =
  let by f = List.stable_sort (fun a b -> Int64.compare (f a) (f b)) (List.rev x.promotions) in
  List.iter
    (fun p ->
      Clock.advance_to t.svc_clock p.p_failed_ns;
      Trace.event t.svc_trace (Trace.Promote { label = p.p_label; client = p.p_promoted });
      Tracer.instant_opt (obs_tracer t) ~cat:Tracer.Svc_promotion
        ~args:
          [
            ("label", p.p_label);
            ("failed", Printf.sprintf "client-%d" p.p_failed);
            ("promoted", Printf.sprintf "client-%d" p.p_promoted);
          ]
        "waiter-promotion")
    (by (fun p -> p.p_failed_ns));
  match t.obs with
  | Some o ->
    List.iter
      (fun p -> Option.iter (fun tr -> o.obs_promoted_tracks <- tr :: o.obs_promoted_tracks) p.p_track)
      (by (fun p -> p.p_takeover_ns))
  | None -> ()

let new_observation t =
  {
    obs_hists = Hist.create_set ();
    obs_tracer = Tracer.create t.svc_clock;
    obs_tracks = [];
    obs_promoted_tracks = [];
    obs_key_ttfb = Hashtbl.create 32;
    obs_key_turnaround = Hashtbl.create 32;
  }

(* Turnaround series are filled from the finished reports, labels
   included. *)
let finalize_obs t reports =
  match t.obs with
  | None -> ()
  | Some o ->
    List.iter
      (fun r ->
        let us = int_of_float (r.turnaround_s *. 1e6) in
        Hist.record o.obs_hists Hist.Svc_turnaround_us us;
        Hist.observe (key_hist o.obs_key_turnaround r.label) us)
      reports

type run_stats = {
  rs_virtual_ns : int64;
  rs_yields : int;
  rs_switches : int;
}

let run ?(observe = false) t specs =
  t.run_epoch <- t.run_epoch + 1;
  t.obs <- (if observe then Some (new_observation t) else None);
  let specs =
    List.stable_sort
      (fun (a : client_spec) b ->
        match Int64.compare a.arrival_ns b.arrival_ns with
        | 0 -> compare a.client_id b.client_id
        | c -> c)
      specs
  in
  (* Plan pass: every decision, in arrival order, before any session runs. *)
  let plans =
    List.map
      (fun spec ->
        Metrics.incr t.svc Metrics.Svc_sessions;
        (spec, decide t spec))
      specs
  in
  let x = { group_free_ns = Hashtbl.create 16; promotions = []; makespan_ns = 0L } in
  let reports = List.map (run_session t x) plans in
  (* Run-end invariants: every entry settled, every client one report. *)
  List.iter
    (fun (_, d) ->
      let e = decision_entry d in
      if e.inflight then
        failwith (Printf.sprintf "Service.run: entry %s still in flight after the run" e.keyed.label))
    plans;
  let reported = Hashtbl.create (List.length reports) in
  List.iter (fun r -> Hashtbl.add reported r.spec.client_id ()) reports;
  List.iter
    (fun (spec : client_spec) ->
      match Hashtbl.find_all reported spec.client_id with
      | [ () ] -> ()
      | rs -> failwith (Printf.sprintf "Service.run: client %d has %d reports" spec.client_id (List.length rs)))
    specs;
  publish_promotions t x;
  finalize_obs t reports;
  (* The reports hand every recorded blob to the caller: a blob still
     resident is copied now, so changing a report's bytes cannot change
     what later runs serve. One evicted during the run is never copied. *)
  Hashtbl.iter (fun _ e -> Option.iter Recording.own e.blob) t.cache;
  (reports, { rs_virtual_ns = x.makespan_ns; rs_yields = 0; rs_switches = 0 })

(* ---- aggregation, stats, cache listing ---- *)

let aggregate t reports =
  let dst = Metrics.create () in
  List.iter (fun r -> Metrics.merge_into ~dst ~src:r.counters) reports;
  Metrics.merge_into ~dst ~src:t.svc;
  dst

type stats = {
  sessions : int;
  recordings : int;
  cache_hits : int;
  cache_misses : int;
  coalesced : int;
  promotions : int;
  failures : int;
  evictions : int;
  resident : int;
  resident_bytes : int;
}

let stats t =
  let get k = Metrics.get_int t.svc k in
  let resident, resident_bytes =
    Hashtbl.fold
      (fun _ e (n, b) ->
        (n + 1, b + (match e.blob with Some blob -> Recording.resident_length blob | None -> 0)))
      t.cache (0, 0)
  in
  {
    sessions = get Metrics.Svc_sessions;
    recordings = get Metrics.Svc_recordings;
    cache_hits = get Metrics.Svc_cache_hits;
    cache_misses = get Metrics.Svc_cache_misses;
    coalesced = get Metrics.Svc_coalesced;
    promotions = get Metrics.Svc_promotions;
    failures = get Metrics.Svc_failures;
    evictions = get Metrics.Svc_evictions;
    resident;
    resident_bytes;
  }

let hit_rate s =
  if s.sessions = 0 then 0. else float_of_int (s.cache_hits + s.coalesced) /. float_of_int s.sessions

type listing_row = {
  row_key : key;
  row_label : string;
  row_resident : bool;
  row_blob_bytes : int;
  row_hits : int;
  row_recordings : int;
  row_evictions : int;
}

let cache_listing t =
  Hashtbl.fold
    (fun key (k : keyed) acc ->
      let resident, blob_bytes =
        match Hashtbl.find_opt t.cache key with
        | Some { blob = Some b; _ } -> (true, Recording.resident_length b)
        | Some { blob = None; _ } -> (true, 0)
        | None -> (false, 0)
      in
      {
        row_key = key;
        row_label = k.label;
        row_resident = resident;
        row_blob_bytes = blob_bytes;
        row_hits = k.hits;
        row_recordings = k.recordings;
        row_evictions = k.evictions;
      }
      :: acc)
    t.keyed_tbl []
  |> List.sort (fun a b -> compare a.row_label b.row_label)

(* ---- fleet generation ---- *)

type fleet_options = {
  clients : int;
  zipf_s : float;  (* popularity skew over (net, sku) ranks *)
  nets : Network.t list;
  skus : Sku.t list;
  fleet_cfg : Mode.config;
  mean_interarrival_s : float;
  fault_fraction : float;  (* clients that arm [inject_fault_after] *)
  degraded_fraction : float;  (* clients behind a lossy channel *)
  fleet_seed : int64;
}

(* The fast-path configuration: the small tagged wire keeps 10k+ downloads
   and verifications cheap, and it is the configuration whose recordings
   benefit from the shared dedup store. *)
let fastpath_cfg = { (Mode.default_config Mode.Ours_mds) with Mode.memsync_tagged = true }

let default_fleet =
  {
    clients = 10_000;
    zipf_s = 1.1;
    nets = Grt_mlfw.Zoo.all;
    skus = Grt_gpu.Sku.all;
    fleet_cfg = fastpath_cfg;
    mean_interarrival_s = 0.005;
    fault_fraction = 0.05;
    degraded_fraction = 0.10;
    fleet_seed = 0x666C656574L (* "fleet" *);
  }

let zipf_fleet (o : fleet_options) =
  if o.clients <= 0 then invalid_arg "Service.zipf_fleet: clients must be positive";
  if o.nets = [] || o.skus = [] then invalid_arg "Service.zipf_fleet: empty catalog";
  let rng = Grt_util.Rng.create ~seed:o.fleet_seed in
  let pairs =
    Array.of_list (List.concat_map (fun n -> List.map (fun s -> (n, s)) o.skus) o.nets)
  in
  let n = Array.length pairs in
  (* Zipf over popularity ranks: weight(rank r) = r^-s. *)
  let cum = Array.make n 0. in
  let total = ref 0. in
  Array.iteri
    (fun i _ ->
      total := !total +. (1. /. (float_of_int (i + 1) ** o.zipf_s));
      cum.(i) <- !total)
    pairs;
  let pick_pair u =
    let target = u *. !total in
    let rec bisect lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) < target then bisect (mid + 1) hi else bisect lo mid
    in
    pairs.(bisect 0 (n - 1))
  in
  let arrival = ref 0. in
  List.init o.clients (fun client_id ->
      let net, sku = pick_pair (Grt_util.Rng.float rng 1.0) in
      (* WiFi-heavy mix, echoing §7.2's evaluated conditions. *)
      let base_profile =
        let p = Grt_util.Rng.float rng 1.0 in
        if p < 0.5 then Profile.wifi else if p < 0.85 then Profile.cellular else Profile.lan
      in
      let profile =
        if Grt_util.Rng.float rng 1.0 < o.degraded_fraction then
          Profile.degrade
            ~drop_prob:(0.005 +. Grt_util.Rng.float rng 0.015)
            ~jitter_s:(Grt_util.Rng.float rng 0.002) base_profile
        else base_profile
      in
      let inject_fault_after =
        if Grt_util.Rng.float rng 1.0 < o.fault_fraction then
          Some (1 + Grt_util.Rng.int rng 4)
        else None
      in
      (* Exponential interarrivals: a Poisson arrival process. *)
      let u = Grt_util.Rng.float rng 1.0 in
      arrival := !arrival +. (-.log (1. -. u) *. o.mean_interarrival_s);
      {
        client_id;
        arrival_ns = Int64.of_float (!arrival *. 1e9);
        net;
        sku;
        profile;
        cfg = o.fleet_cfg;
        inject_fault_after;
      })
