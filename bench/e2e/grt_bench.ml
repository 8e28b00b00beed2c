(* The GR-T end-to-end benchmark.

     grt_bench --workload W --seed N --seconds S --trace 0|1 [--json FILE] [--trace-dir DIR]
     grt_bench --quick --benchmark BENCHMARK.json
     grt_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]

   One process, one domain, one call at a time. An untraced run (trace
   0) measures the end-to-end metrics; a traced run (trace 1) gives the
   per-layer ones. The last line of standard output is a JSON object with
   the keys correct, attempted, failed and metrics; a run whose outputs
   fail a check exits 1 and reports no metrics. *)

module Json = Grt_util.Json
module Hist = Grt_sim.Hist
module Memo_stats = Grt_util.Memo_stats

let setup_reps = 3
let word_bytes = Sys.word_size / 8
let top_heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * word_bytes) /. 1048576.

(* Run rounds from [first] until [seconds] have passed (at least one).
   Returns the operations per second of call time of each round. *)
let window (inst : Workloads.instance) (m : Meter.t) ~first ~seconds =
  let t0 = Meter.now_ns () in
  let rec go r rates =
    let ops0 = m.Meter.ops and s0 = m.Meter.call_s in
    inst.Workloads.round m r;
    let s = m.Meter.call_s -. s0 in
    let rates = (if s > 0. then float_of_int (m.Meter.ops - ops0) /. s else 0.) :: rates in
    if Meter.seconds_between t0 (Meter.now_ns ()) < seconds then go (r + 1) rates else rates
  in
  go first []

type result = {
  workload : string;
  errors : string list;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  details : (string * Json.t) list;
  trace : (Json.t * Json.t) option;  (** Chrome trace, per-layer rollup *)
}

(* ---- end-to-end metrics (untraced) ---- *)

(* Throughput is the median over rounds, so that one round slowed by the
   host does not move it. Call time is the geometric mean over kinds of
   call of each kind's median: one median over a mix of, say, MNIST and
   VGG16 replays would sit between the two clusters and jump with the mix. *)
let call_ms calls =
  let kinds = Hashtbl.create 16 in
  List.iter
    (fun (k, s) -> Hashtbl.replace kinds k (s :: Option.value ~default:[] (Hashtbl.find_opt kinds k)))
    calls;
  let n, logs = Hashtbl.fold (fun _ l (n, acc) -> (n + 1, acc +. log (Stats.median l))) kinds (0, 0.) in
  if n = 0 then 0. else exp (logs /. float_of_int n) *. 1e3

let e2e (m : Meter.t) ~rates ~setup_s ~peak_mb =
  [
    ("ops_per_s", "1/s", Stats.median rates);
    ("call_ms", "ms", call_ms m.Meter.calls);
    ("setup_s", "s", setup_s);
    ("peak_heap_mb", "MB", peak_mb);
  ]

(* ---- per-layer metrics (traced) ---- *)

(* Layers, named after the modules whose public calls the spans wrap. *)
let layers =
  [
    "service.run";
    "session_ctx.create";
    "orchestrate.serve_cached";
    "orchestrate.establish";
    "orchestrate.boot";
    "orchestrate.attempt";
    "orchestrate.finalize";
    "recording.parse_signed";
    "replay_prog.compile";
    "orchestrate.replay_gpushim";
    "replayer.replay_compiled";
    "gpu.kernels";
    "bench";
  ]

let memos = [ "rc.encode"; "rc.decode"; "memsync.hash_page"; "recording.sign"; "recording.verify" ]

(* The simulated (virtual-time) metrics, read right after the traced
   window's first round: that round is a pure function of the seed, so
   these values repeat exactly and two builds compare bit for bit. *)
let sim_metrics (m : Meter.t) =
  let g = Meter.get m in
  let ops = float_of_int m.Meter.ops in
  let per_op x = if ops > 0. then x /. ops else 0. in
  let lat = Stats.sorted m.Meter.sim_latencies in
  let hq key q = Hist.quantile (Hist.get m.Meter.hists key) q *. 1e-6 in
  [
    ("sim.latency_p50_s", "sim_s", Stats.percentile lat 0.5);
    ("sim.latency_p95_s", "sim_s", Stats.percentile lat 0.95);
    ("sim.ttfb_p95_s", "sim_s", hq Hist.Svc_ttfb_us 0.95);
    ("sim.coalesce_wait_p95_s", "sim_s", hq Hist.Svc_coalesce_wait_us 0.95);
    ("sim.turnstile_wait_p95_s", "sim_s", hq Hist.Svc_turnstile_wait_us 0.95);
    ("sim.energy_j_per_op", "J/op", per_op (g "energy_j"));
  ]
  @ List.map
      (fun cat ->
        let name = Grt_sim.Tracer.category_name cat in
        ( "sim.vt." ^ String.map (function '-' -> '_' | c -> c) name ^ "_s",
          "sim_s",
          per_op (g ("vt." ^ name)) ))
      Workloads.vt_categories

(* [rolled]/[covered]: the traced window's attribution ({!Meter.rollup})
   and the window seconds it must account for. [gc] holds the promoted
   words and major collections of the untraced window. *)
let per_layer ~(traced : Meter.t) ~sim ~(untraced : Meter.t) ~rolled ~covered ~unattributed_pct
    ~gc ~memo =
  let layer l = Option.value ~default:0. (Hashtbl.find_opt rolled l) in
  let pct x = if covered > 0. then 100. *. x /. covered else 0. in
  let g = Meter.get traced in
  let ratio a b = if b > 0. then 100. *. a /. b else 0. in
  let per a b = if b > 0. then a /. b else 0. in
  let ops = float_of_int traced.Meter.ops in
  let uops = float_of_int untraced.Meter.ops in
  let sessions = g "sessions" in
  let promoted, major = gc in
  List.map (fun l -> (l ^ ".self_pct", "%", pct (layer l))) layers
  @ [
      ("trace.unattributed_pct", "%", unattributed_pct);
      ( "trace.overhead_pct",
        "%",
        100. *. (per (per traced.Meter.call_s ops) (per untraced.Meter.call_s uops) -. 1.) );
      ("service.hit_pct", "%", ratio (g "hits") sessions);
      ("service.recorded_pct", "%", ratio (g "recorded") sessions);
      ("service.evicted_pct", "%", ratio (g "evictions") sessions);
      ("sched.switches_per_session", "count/op", per (g "switches") sessions);
      ("sched.yields_per_session", "count/op", per (g "yields") sessions);
      ( "sched.runnable_p99",
        "count",
        Hist.quantile (Hist.get traced.Meter.hists Hist.Sched_runnable) 0.99 );
    ]
  @ sim
  @ [
      ("net.blocking_rtts_per_op", "count/op", per (g "rtts") ops);
      ("net.retransmits_per_op", "count/op", per (g "retransmits") ops);
      ("memsync.wire_kib_per_op", "KiB/op", per (g "wire_bytes") ops /. 1024.);
      ("memsync.raw_kib_per_op", "KiB/op", per (g "raw_bytes") ops /. 1024.);
      ("memsync.cross_hits_per_op", "count/op", per (g "sync_cross_hits") ops);
      ("spec.speculated_pct", "%", ratio (g "speculated") (g "commits"));
      ("spec.cross_hits_per_op", "count/op", per (g "spec_cross_hits") ops);
      ("poll.offloaded_pct", "%", ratio (g "polls_offloaded") (g "polls"));
      ("driver.accesses_per_op", "count/op", per (g "accesses") ops);
      ("replay_prog.fused_writes_per_prog", "count", per (g "fused_writes") (g "progs"));
      ("replay_prog.static_pages_per_prog", "count", per (g "static_pages") (g "progs"));
      ("replay_prog.dynamic_loads_per_prog", "count", per (g "dynamic_loads") (g "progs"));
    ]
  @ List.map
      (fun name ->
        let hits, misses =
          match List.assoc_opt name memo with
          | Some (s : Memo_stats.snap) ->
            (float_of_int s.Memo_stats.s_hits, float_of_int s.Memo_stats.s_misses)
          | None -> (0., 0.)
        in
        ("memo." ^ name ^ ".hit_pct", "%", ratio hits (hits +. misses)))
      memos
  @ [
      ("gc.minor_words_per_op", "words/op", per untraced.Meter.minor_words uops);
      ("gc.promoted_words_per_op", "words/op", per promoted uops);
      ("gc.major_collections_per_kop", "1/kop", 1000. *. per major uops);
    ]

(* ---- one run ---- *)

(* Set the workload up [reps] times from scratch, keeping the last
   instance; set-up time is the median. Set-up outputs are checked too. *)
let prepare size (w : Workloads.t) ~seed ~reps =
  let rec go rep times errors =
    let t0 = Meter.now_ns () in
    let inst = w.Workloads.prepare size ~seed ~rep in
    let times = Meter.seconds_between t0 (Meter.now_ns ()) :: times in
    if rep + 1 < reps then go (rep + 1) times (errors @ inst.Workloads.finish ())
    else (inst, List.rev times, errors)
  in
  go 0 [] []

let untraced_run size w ~seed ~seconds ~reps =
  let inst, setups, setup_errors = prepare size w ~seed ~reps in
  let m = Meter.create ~traced:false in
  let t0 = Meter.now_ns () in
  let rates = window inst m ~first:0 ~seconds in
  let window_s = Meter.seconds_between t0 (Meter.now_ns ()) in
  let peak_mb = top_heap_mb () in
  let calls = Stats.sorted (List.map snd m.Meter.calls) in
  {
    workload = w.Workloads.name;
    errors = setup_errors @ inst.Workloads.finish ();
    attempted = m.Meter.ops;
    failed = m.Meter.failed;
    metrics = e2e m ~rates ~setup_s:(Stats.median setups) ~peak_mb;
    details =
      [
        ("rounds", Json.int (List.length rates));
        ("round_ops_per_s", Json.Arr (List.rev_map Json.float rates));
        ("window_s", Json.float window_s);
        ("calls", Json.int (Array.length calls));
        ("call_s", Json.float m.Meter.call_s);
        ("call_p95_ms", Json.float (Stats.percentile calls 0.95 *. 1e3));
        ("setup_reps_s", Json.Arr (List.map Json.float setups));
      ];
    trace = None;
  }

(* Half the window traced, then half untraced (for the tracing overhead and
   the allocation metrics). The traced half comes first, so that its first
   round — the source of the exact simulated metrics — is round 0. *)
let traced_run size (w : Workloads.t) ~seed ~seconds =
  let inst, _, setup_errors = prepare size w ~seed ~reps:1 in
  Memo_stats.reset_counters ();
  let tm = Meter.create ~traced:true in
  let t0 = Meter.now_ns () in
  inst.Workloads.round tm 0;
  let sim = sim_metrics tm in
  let rest_s = (seconds /. 2.) -. Meter.seconds_between t0 (Meter.now_ns ()) in
  let traced_rounds =
    if rest_s > 0. then 1 + List.length (window inst tm ~first:1 ~seconds:rest_s) else 1
  in
  let window_s = Meter.seconds_between t0 (Meter.now_ns ()) in
  let memo = List.map (fun c -> (Memo_stats.name c, Memo_stats.snapshot c)) (Memo_stats.all ()) in
  inst.Workloads.conclude tm;
  let u = Meter.create ~traced:false in
  let q0 = Gc.quick_stat () in
  let untraced_rounds = List.length (window inst u ~first:traced_rounds ~seconds:(seconds /. 2.)) in
  let q1 = Gc.quick_stat () in
  let gc =
    ( q1.Gc.promoted_words -. q0.Gc.promoted_words,
      float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) )
  in
  let rolled, priced_s = Meter.rollup tm in
  let covered = window_s -. priced_s in
  let attributed = Hashtbl.fold (fun _ s acc -> acc +. s) rolled 0. in
  let unattributed_pct = if covered > 0. then 100. *. (covered -. attributed) /. covered else 0. in
  let coverage_errors =
    if Float.abs unattributed_pct > 5. then
      [
        Printf.sprintf "traced self-times cover %.1f%% of the window, not within 5%%"
          (100. -. unattributed_pct);
      ]
    else []
  in
  let layer_s l = Option.value ~default:0. (Hashtbl.find_opt rolled l) in
  let sessions = Meter.get tm "sessions" in
  let rollup =
    Json.Obj
      [
        ("workload", Json.Str w.Workloads.name);
        ("seed", Json.int seed);
        ("window_s", Json.float window_s);
        ("priced_s", Json.float priced_s);
        ("attributed_s", Json.float attributed);
        ( "layers",
          Json.Obj
            (List.map
               (fun l ->
                 ( l,
                   Json.Obj
                     [
                       ("self_s", Json.float (layer_s l));
                       ("pct", Json.float (100. *. layer_s l /. covered));
                     ] ))
               layers) );
        ( "priced_us",
          Json.Obj
            (List.map
               (fun l ->
                 let n, mean = Meter.priced_mean tm l in
                 (l, Json.Obj [ ("n", Json.int n); ("mean_us", Json.float (mean *. 1e6)) ]))
               [
                 "session_ctx.create";
                 "orchestrate.serve_cached";
                 "orchestrate.establish";
                 "orchestrate.boot";
                 "orchestrate.attempt";
                 "orchestrate.finalize";
               ]) );
        ( "service_overhead_us_per_session",
          Json.float (if sessions > 0. then layer_s "service.run" /. sessions *. 1e6 else 0.) );
      ]
  in
  {
    workload = w.Workloads.name;
    errors = setup_errors @ inst.Workloads.finish () @ coverage_errors;
    attempted = tm.Meter.ops + u.Meter.ops;
    failed = tm.Meter.failed + u.Meter.failed;
    metrics =
      per_layer ~traced:tm ~sim ~untraced:u ~rolled ~covered ~unattributed_pct ~gc ~memo;
    details =
      [
        ("traced_rounds", Json.int traced_rounds);
        ("untraced_rounds", Json.int untraced_rounds);
        ("traced_window_s", Json.float window_s);
        ("rollup", rollup);
      ];
    trace = Some (Meter.chrome_json tm, rollup);
  }

(* ---- output ---- *)

let metrics_json r =
  Json.Obj
    (List.map
       (fun (name, unit_, v) -> (name, Json.Obj [ ("value", Json.float v); ("unit", Json.Str unit_) ]))
       r.metrics)

let summary_json r =
  let correct = r.errors = [] in
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("metrics", if correct then metrics_json r else Json.Obj []);
    ]

let record_json r ~seed ~seconds ~traced =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.int seed);
      ("trace", Json.int (if traced then 1 else 0));
      ("seconds", Json.float seconds);
      ("correct", Json.Bool (r.errors = []));
      ("attempted", Json.int r.attempted);
      ("failed", Json.int r.failed);
      ("errors", Json.Arr (List.map Json.str r.errors));
      ("metrics", metrics_json r);
      ("details", Json.Obj r.details);
      ( "host",
        Json.Obj
          [
            ("nproc", Json.int (Grt_util.Par.recommended_domains ()));
            ("ocaml", Json.Str Sys.ocaml_version);
          ] );
    ]

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let print_result r ~seed ~traced =
  Printf.printf "grt_bench %s seed=%d trace=%d attempted=%d failed=%d\n" r.workload seed
    (if traced then 1 else 0) r.attempted r.failed;
  List.iter
    (fun (k, v) -> if k <> "rollup" then Printf.printf "  %-32s %s\n" k (Json.to_string v))
    r.details;
  List.iter (fun (name, unit_, v) -> Printf.printf "  %-32s %.6g %s\n" name v unit_) r.metrics;
  List.iter (fun e -> Printf.printf "  CHECK FAILED: %s\n" e) r.errors

(* ---- quick smoke ---- *)

let quick ~benchmark =
  let spec = Spec.load_exn benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun traced ->
          let r =
            if traced then traced_run Workloads.quick w ~seed:1 ~seconds:0.
            else untraced_run Workloads.quick w ~seed:1 ~seconds:0. ~reps:1
          in
          let expected =
            if traced then List.map (fun (l : Spec.layer) -> (l.Spec.lname, l.Spec.lunit)) spec.Spec.per_layer
            else List.map (fun (e : Spec.e2e) -> (e.Spec.name, e.Spec.unit_)) spec.Spec.end_to_end
          in
          let emitted = List.map (fun (n, u, _) -> (n, u)) r.metrics in
          List.iter (fun e -> problem "%s: %s" w.Workloads.name e) r.errors;
          List.iter
            (fun (n, u) ->
              match List.assoc_opt n emitted with
              | None -> problem "%s trace=%b: %s not emitted" w.Workloads.name traced n
              | Some u' when u' <> u -> problem "%s: %s emitted in %s, declared %s" w.Workloads.name n u' u
              | Some _ -> ())
            expected;
          List.iter
            (fun (n, _) ->
              if not (List.mem_assoc n expected) then
                problem "%s trace=%b: %s emitted but not declared" w.Workloads.name traced n)
            emitted;
          List.iter
            (fun (n, _, v) ->
              if not (Float.is_finite v) then problem "%s: %s is not finite" w.Workloads.name n)
            r.metrics;
          Printf.printf "quick %-12s trace=%d attempted=%d metrics=%d checks=%s\n%!" w.Workloads.name
            (if traced then 1 else 0) r.attempted (List.length r.metrics)
            (if r.errors = [] then "ok" else "FAILED"))
        [ false; true ])
    Workloads.all;
  List.iter (Printf.printf "PROBLEM: %s\n") (List.rev !problems);
  if !problems = [] then 0 else 1

(* ---- command line ---- *)

let usage =
  "grt_bench --workload W --seed N --seconds S --trace 0|1 [--json FILE] [--trace-dir DIR]\n\
  \       grt_bench --quick --benchmark BENCHMARK.json\n\
  \       grt_bench compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]\n\
   workloads: "
  ^ String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let json = ref "" and trace_dir = ref ".grt_bench" and quick_mode = ref false in
  let benchmark = ref "BENCHMARK.json" and positional = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W  workload to run");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  untraced (end-to-end) or traced (per-layer) run");
      ("--json", Arg.Set_string json, "FILE  append the run record to FILE (JSON lines)");
      ("--trace-dir", Arg.Set_string trace_dir, "DIR  where a traced run writes its spans and rollup");
      ("--quick", Arg.Set quick_mode, " smoke: every workload at ~1% size, traced and untraced");
      ("--benchmark", Arg.Set_string benchmark, "FILE  BENCHMARK.json with the declared metrics");
    ]
  in
  let die msg =
    prerr_endline ("grt_bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try Arg.parse_argv Sys.argv spec (fun a -> positional := !positional @ [ a ]) usage with
  | Arg.Help m ->
    print_string m;
    exit 0
  | Arg.Bad m -> die m);
  match !positional with
  | [ "compare"; a; b ] -> exit (Compare.run ~spec:(Spec.load_exn !benchmark) a b)
  | _ :: _ -> die "unexpected arguments"
  | [] when !quick_mode -> exit (quick ~benchmark:!benchmark)
  | [] -> (
    match Workloads.find !workload with
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
    | Some _ when !trace <> 0 && !trace <> 1 -> die "--trace takes 0 or 1"
    | Some _ when !seconds < 0. -> die "--seconds must be >= 0"
    | Some w ->
      let traced = !trace = 1 in
      let r =
        if traced then traced_run Workloads.full w ~seed:!seed ~seconds:!seconds
        else untraced_run Workloads.full w ~seed:!seed ~seconds:!seconds ~reps:setup_reps
      in
      print_result r ~seed:!seed ~traced;
      (match r.trace with
      | Some (chrome, rollup) when !trace_dir <> "" ->
        mkdir_p !trace_dir;
        let base = Filename.concat !trace_dir (Printf.sprintf "%s-seed%d" r.workload !seed) in
        write_file (base ^ ".trace.json") (Json.to_string chrome);
        write_file (base ^ ".rollup.json") (Json.to_string rollup)
      | _ -> ());
      if !json <> "" then
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 !json (fun oc ->
            Out_channel.output_string oc
              (Json.to_string (record_json r ~seed:!seed ~seconds:!seconds ~traced) ^ "\n"));
      print_endline (Json.to_string (summary_json r));
      exit (if r.errors = [] then 0 else 1))
