(* The four workloads. Each is prepared from the run's seed (set-up), then
   executes rounds of public calls until the measured window closes; every
   call's outputs are checked, in the round or when the run ends. *)

module Service = Grt.Service
module Orchestrate = Grt.Orchestrate
module Pipeline = Grt.Orchestrate.Pipeline
module Ctx = Grt.Session_ctx
module Recording = Grt.Recording
module Replayer = Grt.Replayer
module Network = Grt_mlfw.Network
module Runner = Grt_mlfw.Runner
module Zoo = Grt_mlfw.Zoo
module Sku = Grt_gpu.Sku
module Profile = Grt_net.Profile
module Counters = Grt_sim.Counters
module Metrics = Grt_sim.Metrics
module Hist = Grt_sim.Hist
module Tracer = Grt_sim.Tracer
module Hashing = Grt_util.Hashing

(* Workload sizes. [full] is what a measured run uses; [quick] runs the
   same code paths at about 1% of that, for the test suite. *)
type fleet_size = {
  clients : int;  (** clients per [Service.run] *)
  warm_clients : int;  (** clients in the set-up warm-up fleet *)
  nets : Network.t list;
  skus : Sku.t list;
}

type size = {
  hot : fleet_size;
  churn : fleet_size;
  zoo : Network.t list;  (** the NNs record-zoo and replay-zoo cycle through *)
  record_seeds : int;  (** record-zoo sessions per NN per round *)
  warm_passes : int;  (** replay-zoo warm replays per NN per cold start *)
  served_samples : int * int;  (** fleet pricing: served sessions per round, per run *)
  recorded_samples : int * int;  (** fleet pricing: recordings per round, per run *)
}

let full =
  {
    hot = { clients = 2000; warm_clients = 500; nets = Zoo.all; skus = [ Sku.g71_mp8 ] };
    (* The four Zoo NNs whose recordings cost about the same: with MNIST and
       AlexNet in the mix, how many of each a round happens to record would
       set most of the run-to-run spread. *)
    churn =
      {
        clients = 60;
        warm_clients = 20;
        nets = Zoo.[ mobilenet; squeezenet; resnet12; vgg16 ];
        skus = [ Sku.g71_mp8; Sku.g52_mp4; Sku.g31_mp2 ];
      };
    zoo = Zoo.all;
    record_seeds = 4;
    warm_passes = 15;
    served_samples = (50, 500);
    recorded_samples = (6, 50);
  }

let quick =
  {
    hot = { clients = 20; warm_clients = 5; nets = [ Zoo.mnist ]; skus = [ Sku.g71_mp8 ] };
    churn =
      {
        clients = 10;
        warm_clients = 4;
        nets = [ Zoo.mnist ];
        skus = [ Sku.g71_mp8; Sku.g52_mp4; Sku.g31_mp2 ];
      };
    zoo = [ Zoo.mnist ];
    record_seeds = 2;
    warm_passes = 2;
    served_samples = (5, 10);
    recorded_samples = (2, 4);
  }

type instance = {
  round : Meter.t -> int -> unit;  (** one round of public calls *)
  conclude : Meter.t -> unit;  (** after a traced window: attribute priced work *)
  finish : unit -> string list;  (** output-check failures, all rounds included *)
}

type t = { name : string; prepare : size -> seed:int -> rep:int -> instance }

let derive seed i = Hashing.combine seed (Int64.of_int i)
let sku = Sku.g71_mp8
let verify blob = Recording.verify_and_parse ~key:Orchestrate.cloud_signing_key blob

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let fail errors fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt

(* ---- shared per-layer notes ---- *)

let note_counters m c =
  let g k = float_of_int (Counters.get_int c (Metrics.name k)) in
  let open Metrics in
  Meter.note m "rtts" (g Net_blocking_rtts);
  Meter.note m "retransmits" (g Net_retransmits);
  Meter.note m "wire_bytes" (g Sync_down_wire_bytes +. g Sync_up_wire_bytes);
  Meter.note m "raw_bytes" (g Sync_down_raw_bytes +. g Sync_up_raw_bytes);
  Meter.note m "sync_cross_hits" (g Sync_cross_hits);
  Meter.note m "spec_cross_hits" (g Spec_cross_hits);
  Meter.note m "commits" (g Commits_total);
  Meter.note m "speculated" (g Commits_speculated);
  Meter.note m "polls" (g Poll_instances);
  Meter.note m "polls_offloaded" (g Poll_offloaded);
  Meter.note m "accesses" (g Reg_reads +. g Reg_writes)

(* Virtual self time per recorder phase, from the program's span tracers. *)
let vt_categories =
  Tracer.
    [
      Establish;
      Boot;
      Commit;
      Validate_speculation;
      Rollback_recovery;
      Poll_offload;
      Memsync_down;
      Memsync_up;
      Link_exchange;
    ]

let note_tracer m tr =
  List.iter
    (fun (cat, (st : Tracer.cat_stat)) ->
      if List.mem cat vt_categories then
        Meter.note m ("vt." ^ Tracer.category_name cat) (Int64.to_float st.Tracer.self_ns *. 1e-9))
    (Tracer.summary tr)

(* A recording session stepped stage by stage, one span per stage. *)
let stage_span = function
  | "created" -> "orchestrate.establish"
  | "established" -> "orchestrate.boot"
  | "booted" -> "orchestrate.attempt"
  | _ -> "orchestrate.finalize"

(* [priced_as] notes each stage's seconds under that network's name. *)
let rec step_pipeline ?priced_as m p =
  let stage = stage_span (Pipeline.stage_name p) in
  let step = Meter.span m stage (fun () -> Pipeline.step p) in
  Option.iter
    (fun net -> Meter.note m (Printf.sprintf "priced.%s.%s" net stage) (Meter.last_self m))
    priced_as;
  match step with `More -> step_pipeline ?priced_as m p | `Done outcome -> outcome

(* ---- fleets ----

   Each round is a fresh service running one generated fleet. The round's
   networks carry a tag derived from the seed and the round, so the cache
   keys — and with them the recording seeds — are new: every round records
   new content, as a fresh process would, and the process-wide memos hit
   only on content that distinct sessions really share. *)

let tagged nets tag =
  List.map (fun (n : Network.t) -> { n with Network.name = n.Network.name ^ "@" ^ tag }) nets

let base_name (n : Network.t) =
  match String.index_opt n.Network.name '@' with
  | Some i -> String.sub n.Network.name 0 i
  | None -> n.Network.name

let outcome_counts reports =
  List.fold_left
    (fun (rec_, hit, coal, failed) (r : Service.session_report) ->
      match r.Service.outcome with
      | Service.Recorded _ -> (rec_ + 1, hit, coal, failed)
      | Service.Cache_hit -> (rec_, hit + 1, coal, failed)
      | Service.Coalesced -> (rec_, hit, coal + 1, failed)
      | Service.Failed _ -> (rec_, hit, coal, failed + 1))
    (0, 0, 0, 0) reports

let latest_blobs reports =
  let blobs = Hashtbl.create 16 in
  List.iter
    (fun (r : Service.session_report) ->
      match r.Service.outcome with
      | Service.Recorded o -> Hashtbl.replace blobs r.Service.label o.Orchestrate.blob
      | _ -> ())
    reports;
  blobs

(* Exactly one outcome per client; outcomes add up to the clients and agree
   with the service's own counts; every resident blob verifies. *)
let check_fleet errors ~round svc specs reports =
  let err fmt = fail errors ("fleet round %d: " ^^ fmt) round in
  let ids l = List.sort compare l in
  if
    ids (List.map (fun (r : Service.session_report) -> r.Service.spec.Service.client_id) reports)
    <> ids (List.map (fun (s : Service.client_spec) -> s.Service.client_id) specs)
  then err "%d outcomes for %d clients, not one each" (List.length reports) (List.length specs);
  let recorded, hits, coalesced, failed = outcome_counts reports in
  let n = List.length specs in
  if recorded + hits + coalesced + failed <> n then
    err "recorded %d + hits %d + coalesced %d + failed %d <> %d clients" recorded hits coalesced
      failed n;
  let st = Service.stats svc in
  if
    st.Service.sessions <> n || st.Service.recordings <> recorded || st.Service.cache_hits <> hits
    || st.Service.coalesced <> coalesced || st.Service.failures <> failed
  then err "service stats disagree with the outcomes";
  let blobs = latest_blobs reports in
  List.iter
    (fun (row : Service.listing_row) ->
      if row.Service.row_resident && row.Service.row_blob_bytes > 0 then
        match Hashtbl.find_opt blobs row.Service.row_label with
        | None -> err "resident blob %s was never recorded" row.Service.row_label
        | Some blob when Bytes.length blob <> row.Service.row_blob_bytes ->
          err "resident blob %s has the wrong size" row.Service.row_label
        | Some blob -> (
          match verify blob with
          | Ok _ -> ()
          | Error e -> err "resident blob %s fails verification: %s" row.Service.row_label e))
    (Service.cache_listing svc)

let note_fleet m svc reports (rs : Service.run_stats) =
  let recorded, hits, coalesced, _ = outcome_counts reports in
  Meter.note m "sessions" (float_of_int (List.length reports));
  Meter.note m "hits" (float_of_int (hits + coalesced));
  Meter.note m "recorded" (float_of_int recorded);
  Meter.note m "evictions" (float_of_int (Service.stats svc).Service.evictions);
  Meter.note m "yields" (float_of_int rs.Service.rs_yields);
  Meter.note m "switches" (float_of_int rs.Service.rs_switches);
  List.iter
    (fun (r : Service.session_report) ->
      m.Meter.sim_latencies <- r.Service.turnaround_s :: m.Meter.sim_latencies;
      match r.Service.outcome with
      | Service.Recorded _ -> Meter.note m ("recorded." ^ base_name r.Service.spec.Service.net) 1.
      | _ -> ())
    reports;
  note_counters m (Service.aggregate svc reports);
  match Service.observation svc with
  | None -> ()
  | Some o ->
    Hist.merge_set ~into:m.Meter.hists o.Service.obs_hists;
    List.iter (fun (tr : Tracer.track) -> note_tracer m tr.Tracer.track_tracer) (Service.fleet_tracks svc)

type pricing = { mutable served : int; mutable recorded : int }

(* Price the round's sessions directly, outside the service: the same seeds,
   options and blobs, with a fresh per-group speculation history and per-key
   memsync store replayed in arrival order — the state the service gave
   each recording, so the directly recorded blob must equal the service's. *)
let price m errors size budget ~round reports =
  let blobs = latest_blobs reports in
  let served =
    Array.of_list (List.filter (fun (r : Service.session_report) -> Service.served r.Service.outcome) reports)
  in
  let per_round, per_run = size.served_samples in
  let k = min (Array.length served) (min per_round (per_run - budget.served)) in
  for i = 0 to k - 1 do
    let r = served.(i * Array.length served / k) in
    let spec = r.Service.spec in
    match Hashtbl.find_opt blobs r.Service.label with
    | None -> ()
    | Some blob ->
      budget.served <- budget.served + 1;
      (* The service's serve seed, derived as it derives it; should the
         derivation change, a lossy channel may fail this sample, which
         only drops it. *)
      let seed = Hashing.combine (Service.recording_seed r.Service.key) (Int64.of_int spec.Service.client_id) in
      (try
         Meter.span ~priced:true m "op.priced_serve" (fun () ->
             let ctx =
               Meter.span m "session_ctx.create" (fun () ->
                   Ctx.create
                     ~options:{ Ctx.default_options with Ctx.observe = true }
                     ~cfg:spec.Service.cfg ~profile:spec.Service.profile ~sku:spec.Service.sku
                     ~net:spec.Service.net ~seed ~granularity:`Monolithic ())
             in
             Meter.span m "orchestrate.serve_cached" (fun () -> Orchestrate.serve_cached ctx ~blob))
       with _ -> ())
  done;
  (* Recordings, whole share groups at a time, each group replayed from its
     first recording of the round; groups of the networks priced least so
     far go first, so that every network gets priced. *)
  let per_round, per_run = size.recorded_samples in
  let group (r : Service.session_report) =
    r.Service.spec.Service.net.Network.name ^ "|" ^ r.Service.spec.Service.sku.Sku.name
  in
  let order = ref [] and members = Hashtbl.create 16 and spoiled = Hashtbl.create 4 in
  List.iter
    (fun (r : Service.session_report) ->
      let g = group r in
      match r.Service.outcome with
      | Service.Recorded o ->
        if not (Hashtbl.mem members g) then order := (g, base_name r.Service.spec.Service.net) :: !order;
        Hashtbl.replace members g ((r, o) :: Option.value ~default:[] (Hashtbl.find_opt members g))
      | Service.Failed _ -> Hashtbl.replace spoiled g ()
      | Service.Cache_hit | Service.Coalesced -> ())
    reports;
  let priced_n net = Meter.get m ("priced." ^ net ^ ".n") in
  let order =
    List.stable_sort (fun (_, a) (_, b) -> compare (priced_n a) (priced_n b)) (List.rev !order)
  in
  let priced = ref 0 in
  List.iter
    (fun (g, net) ->
      if !priced < per_round && budget.recorded < per_run && not (Hashtbl.mem spoiled g) then begin
        let history = Grt.Spec_history.create () in
        let stores = Hashtbl.create 4 in
        List.iter
          (fun ((r : Service.session_report), (o : Orchestrate.record_outcome)) ->
            incr priced;
            budget.recorded <- budget.recorded + 1;
            let spec = r.Service.spec in
            let store =
              match Hashtbl.find_opt stores r.Service.key with
              | Some s -> s
              | None ->
                let s = Grt.Memsync.Store.create () in
                Hashtbl.add stores r.Service.key s;
                s
            in
            Grt.Spec_history.new_epoch history;
            let options =
              {
                Ctx.default_options with
                Ctx.history = Some history;
                sync_store = Some store;
                inject_fault_after = spec.Service.inject_fault_after;
                observe = true;
              }
            in
            match
              Meter.span ~priced:true m "op.priced_record" (fun () ->
                  let ctx =
                    Meter.span m "session_ctx.create" (fun () ->
                        Ctx.create ~options ~cfg:spec.Service.cfg ~profile:spec.Service.profile
                          ~sku:spec.Service.sku ~net:spec.Service.net
                          ~seed:(Service.recording_seed r.Service.key) ~granularity:`Monolithic ())
                  in
                  step_pipeline ~priced_as:net m (Pipeline.create ctx))
            with
            | direct ->
              Meter.note m ("priced." ^ net ^ ".n") 1.;
              if not (Bytes.equal direct.Orchestrate.blob o.Orchestrate.blob) then
                fail errors "fleet round %d: direct recording of %s differs from the service's"
                  round r.Service.label
            | exception e ->
              fail errors "fleet round %d: direct recording of %s raised %s" round r.Service.label
                (Printexc.to_string e))
          (List.rev (Hashtbl.find members g))
      end)
    order

(* What the priced costs say the service's sessions spent inside
   [Service.run]; the remainder stays with "service.run" as its own
   overhead. Recording stages are priced per network (their cost varies
   with the network far more than with anything else); a network with no
   priced recording takes the mean over all of them. *)
let attribute_fleet nets m =
  let mean name = snd (Meter.priced_mean m name) in
  let move dst s = Meter.transfer m ~src:"service.run" ~dst s in
  let g = Meter.get m in
  move "session_ctx.create" (g "sessions" *. mean "session_ctx.create");
  move "orchestrate.serve_cached" (g "hits" *. mean "orchestrate.serve_cached");
  List.iter
    (fun stage ->
      let stage_s net = g (Printf.sprintf "priced.%s.%s" net stage) in
      let n net = g ("priced." ^ net ^ ".n") in
      let all_n = List.fold_left (fun a net -> a +. n net) 0. nets in
      let overall = if all_n > 0. then List.fold_left (fun a net -> a +. stage_s net) 0. nets /. all_n else 0. in
      move stage
        (List.fold_left
           (fun a net ->
             a +. (g ("recorded." ^ net) *. if n net > 0. then stage_s net /. n net else overall))
           0. nets))
    [ "orchestrate.establish"; "orchestrate.boot"; "orchestrate.attempt"; "orchestrate.finalize" ]

(* [capacity] [None] means [Service.create ()] with no arguments. *)
let fleet_workload ~name ~options ~capacity ~pick =
  let prepare size ~seed ~rep =
    let f = pick size in
    let seed = Int64.of_int seed in
    let errors = ref [] in
    let budget = { served = 0; recorded = 0 } in
    let run_round m ~tag ~fleet_seed ~clients ~round =
      let specs =
        Meter.bench m (fun () ->
            Service.zipf_fleet
              { options with Service.clients; nets = tagged f.nets tag; skus = f.skus; fleet_seed })
      in
      let svc =
        match capacity with
        | None -> Service.create ()
        | Some c -> Service.create ~cache_capacity:c ()
      in
      match
        Meter.call m ~name:"service.run" ~ops:clients (fun () ->
            if m.Meter.traced then Service.run ~observe:true svc specs else Service.run svc specs)
      with
      | Error e -> fail errors "fleet round %d: Service.run raised %s" round (Printexc.to_string e)
      | Ok (reports, rs) ->
        Meter.bench m (fun () ->
            check_fleet errors ~round svc specs reports;
            note_fleet m svc reports rs);
        if m.Meter.traced then price m errors size budget ~round reports
    in
    (* Warm-up: one smaller round, so that lazy initialisation and the
       first round's page faults land in set-up, not in the window. *)
    run_round (Meter.create ~traced:false)
      ~tag:(Printf.sprintf "%Lx.setup%d" seed rep)
      ~fleet_seed:(derive seed (-1 - rep))
      ~clients:f.warm_clients ~round:(-1);
    {
      round =
        (fun m r ->
          run_round m ~tag:(Printf.sprintf "%Lx.%d" seed r) ~fleet_seed:(derive seed r)
            ~clients:f.clients ~round:r);
      conclude = attribute_fleet (List.map base_name f.nets);
      finish = (fun () -> List.rev !errors);
    }
  in
  { name; prepare }

(* Cache reads: Zipf 1.1 on a fresh unbounded cache, so almost every session
   is coalesced or served and the service path carries the load. *)
let fleet_hot =
  fleet_workload ~name:"fleet-hot" ~options:Service.default_fleet ~capacity:None ~pick:(fun s ->
      s.hot)

(* Cache writes: a flat Zipf 0.5 over a 2-entry cache, so most sessions miss
   and re-record against the per-key shared stores. *)
let fleet_churn =
  fleet_workload ~name:"fleet-churn"
    ~options:{ Service.default_fleet with Service.zipf_s = 0.5; mean_interarrival_s = 0.05 }
    ~capacity:(Some 2) ~pick:(fun s -> s.churn)

(* ---- record-zoo ----

   Solo recording sessions (no service, no scheduler): every Zoo NN under
   distinct seeds, Ours_mds default configuration over WiFi, a fresh
   speculation history each. *)

let record_cfg = Grt.Mode.default_config Grt.Mode.Ours_mds

let record_zoo =
  let prepare size ~seed ~rep =
    let seed = Int64.of_int seed in
    let errors = ref [] in
    let firsts = Hashtbl.create 8 in
    let session m ~round net s =
      let options =
        {
          Ctx.default_options with
          Ctx.history = Some (Grt.Spec_history.create ());
          observe = m.Meter.traced;
        }
      in
      match
        Meter.call m ~name:"op.record_session" ~kind:net.Network.name ~ops:1 (fun () ->
            let ctx =
              Meter.span m "session_ctx.create" (fun () ->
                  Ctx.create ~options ~cfg:record_cfg ~profile:Profile.wifi ~sku ~net ~seed:s
                    ~granularity:`Monolithic ())
            in
            let p = Pipeline.create ctx in
            if m.Meter.traced then step_pipeline m p else Pipeline.run p)
      with
      | Error e ->
        fail errors "record round %d: %s seed %Ld raised %s" round net.Network.name s
          (Printexc.to_string e)
      | Ok o ->
        Meter.bench m (fun () ->
            (match verify o.Orchestrate.blob with
            | Ok _ -> ()
            | Error e -> fail errors "record round %d: %s blob fails verification: %s" round net.Network.name e);
            if round >= 0 && not (Hashtbl.mem firsts net.Network.name) then
              Hashtbl.add firsts net.Network.name (net, s, o.Orchestrate.blob);
            m.Meter.sim_latencies <- o.Orchestrate.total_s :: m.Meter.sim_latencies;
            Meter.note m "energy_j" o.Orchestrate.client_energy_j;
            note_counters m o.Orchestrate.counters;
            Option.iter (note_tracer m) o.Orchestrate.tracer)
    in
    let warm = Meter.create ~traced:false in
    List.iteri (fun j net -> session warm ~round:(-1) net (derive (derive seed (-1 - rep)) j)) size.zoo;
    {
      round =
        (fun m r ->
          for i = 0 to size.record_seeds - 1 do
            List.iteri (fun j net -> session m ~round:r net (derive (derive seed r) ((i * 64) + j))) size.zoo
          done);
      conclude = ignore;
      finish =
        (fun () ->
          (* The first recording of each NN replays bit-exactly against the
             native run on the same inputs and weights. *)
          Hashtbl.iter
            (fun _ ((net : Network.t), s, blob) ->
              let plan = Network.expand net in
              let input = Runner.input_values plan ~seed:s in
              let native =
                Grt.Native.run_inference ~clock:(Grt_sim.Clock.create ()) ~sku ~net ~seed:s ~input ()
              in
              match
                Orchestrate.replay_recording ~sku ~blob ~input
                  ~params:(Runner.weight_values plan ~seed:s) ~seed:s ()
              with
              | ro ->
                if not (same_floats ro.Orchestrate.r.Replayer.output native.Grt.Native.output) then
                  fail errors "record: %s replay differs from the native run" net.Network.name
              | exception e ->
                fail errors "record: %s replay raised %s" net.Network.name (Printexc.to_string e))
            firsts;
          List.rev !errors);
    }
  in
  { name = "record-zoo"; prepare }

(* ---- replay-zoo ----

   The TEE side: no network, recorder or service. Set-up records one
   fast-path blob per NN; each round cold-starts every NN (compile plus a
   first replay on a fresh client), then replays them round-robin, warm,
   each on a fresh input. *)

type replay_target = {
  net : Network.t;
  plan : Network.plan;
  blob : bytes;
  params : (string * float array) list;
  prog : Grt.Replay_prog.t;
  gpushim : Grt.Gpushim.t;
  energy : Grt_sim.Energy.t;
  rseed : int64;
}

let replay_zoo =
  let prepare size ~seed ~rep =
    let seed = Int64.of_int seed in
    let errors = ref [] in
    let rseed = derive seed (-1 - rep) in
    let targets =
      List.map
        (fun net ->
          let o =
            Orchestrate.record ~config:Service.fastpath_cfg ~profile:Profile.wifi
              ~mode:Grt.Mode.Ours_mds ~sku ~net ~seed:rseed ()
          in
          let blob = o.Orchestrate.blob in
          (match verify blob with
          | Ok _ -> ()
          | Error e -> fail errors "replay set-up: %s blob fails verification: %s" net.Network.name e);
          let plan = Network.expand net in
          let params = Runner.weight_values plan ~seed:rseed in
          let prog = Orchestrate.compile_recording ~blob () in
          let gpushim, _, energy = Orchestrate.replay_gpushim ~sku ~seed:rseed () in
          (* The first execution learns poll hints and installs memory images. *)
          ignore
            (Replayer.replay_compiled ~gpushim ~prog ~input:(Runner.input_values plan ~seed:rseed)
               ~params ~energy ());
          { net; plan; blob; params; prog; gpushim; energy; rseed })
        size.zoo
    in
    let inputs = ref 0 in
    let next_input z =
      incr inputs;
      let s = derive (derive seed 0x696e) !inputs in
      (s, Runner.input_values z.plan ~seed:s)
    in
    (* (target, input seed, output) of sampled replays, checked at the end *)
    let sampled = ref [] in
    let sample_count = Hashtbl.create 8 in
    let keep z s (r : Replayer.result) ~limit =
      let n = Option.value ~default:0 (Hashtbl.find_opt sample_count z.net.Network.name) in
      if n < limit then begin
        Hashtbl.replace sample_count z.net.Network.name (n + 1);
        sampled := (z, s, r.Replayer.output) :: !sampled
      end
    in
    let note m (r : Replayer.result) =
      m.Meter.sim_latencies <- r.Replayer.delay_s :: m.Meter.sim_latencies;
      Meter.note m "energy_j" (Option.value ~default:0. r.Replayer.energy_j)
    in
    let cold m ~round z =
      let s, input = Meter.bench m (fun () -> next_input z) in
      match
        Meter.call m ~name:"op.replay_cold" ~kind:("cold/" ^ z.net.Network.name) ~ops:1 (fun () ->
            if m.Meter.traced then begin
              let v =
                match
                  Meter.span m "recording.parse_signed" (fun () ->
                      Recording.parse_signed ~key:Orchestrate.cloud_signing_key z.blob)
                with
                | Ok v -> v
                | Error e -> raise (Replayer.Rejected e)
              in
              let prog = Meter.span m "replay_prog.compile" (fun () -> Grt.Replay_prog.compile v) in
              let gpushim, _, energy =
                Meter.span m "orchestrate.replay_gpushim" (fun () ->
                    Orchestrate.replay_gpushim ~sku ~seed:z.rseed ())
              in
              ( prog,
                Meter.span m "replayer.replay_compiled" (fun () ->
                    Replayer.replay_compiled ~gpushim ~prog ~input ~params:z.params ~energy ()) )
            end
            else
              let prog = Orchestrate.compile_recording ~blob:z.blob () in
              ( prog,
                (Orchestrate.replay_compiled ~sku ~prog ~input ~params:z.params ~seed:z.rseed ())
                  .Orchestrate.r ))
      with
      | Error e ->
        fail errors "replay round %d: %s cold start raised %s" round z.net.Network.name
          (Printexc.to_string e)
      | Ok (prog, r) ->
        Meter.bench m (fun () ->
            let st = Grt.Replay_prog.stats prog in
            Meter.note m "progs" 1.;
            Meter.note m "fused_writes" (float_of_int st.Grt.Replay_prog.fused_writes);
            Meter.note m "static_pages" (float_of_int st.Grt.Replay_prog.static_pages);
            Meter.note m "dynamic_loads" (float_of_int st.Grt.Replay_prog.dynamic_loads);
            note m r;
            keep z s r ~limit:1)
    in
    let warm m ~round z =
      let s, input = Meter.bench m (fun () -> next_input z) in
      match
        Meter.call m ~name:"op.replay_warm" ~kind:("warm/" ^ z.net.Network.name) ~ops:1 (fun () ->
            Meter.span m "replayer.replay_compiled" (fun () ->
                Replayer.replay_compiled ~gpushim:z.gpushim ~prog:z.prog ~input ~params:z.params
                  ~energy:z.energy ()))
      with
      | Error e ->
        fail errors "replay round %d: %s warm replay raised %s" round z.net.Network.name
          (Printexc.to_string e)
      | Ok r ->
        Meter.bench m (fun () ->
            note m r;
            keep z s r ~limit:4)
    in
    {
      round =
        (fun m r ->
          List.iter (cold m ~round:r) targets;
          for _ = 1 to size.warm_passes do
            List.iter (warm m ~round:r) targets
          done);
      conclude = ignore;
      finish =
        (fun () ->
          (* Sampled compiled replays (one cold, three warm per NN) are
             bit-equal to the interpreted replayer on the same input. *)
          List.iter
            (fun (z, s, output) ->
              let input = Runner.input_values z.plan ~seed:s in
              match
                Orchestrate.replay_recording ~sku ~blob:z.blob ~input ~params:z.params ~seed:z.rseed ()
              with
              | ro ->
                if not (same_floats ro.Orchestrate.r.Replayer.output output) then
                  fail errors "replay: %s compiled output differs from interpreted (input %Ld)"
                    z.net.Network.name s
              | exception e ->
                fail errors "replay: %s interpreted replay raised %s" z.net.Network.name
                  (Printexc.to_string e))
            (List.rev !sampled);
          List.rev !errors);
    }
  in
  { name = "replay-zoo"; prepare }

let all = [ fleet_hot; fleet_churn; record_zoo; replay_zoo ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
