(* Observability tests: the JSON codec, log-bucketed histograms, the span
   tracer and its Chrome trace-event export, session reports, and the
   bench-row JSON export (which must mirror the printed tables field for
   field).

   The heavyweight fixture is one observed MNIST record run, shared lazily;
   a paired unobserved run checks the zero-cost contract directly (same
   blob, same counters, same virtual delay). *)

module Json = Grt_util.Json
module Clock = Grt_sim.Clock
module Tracer = Grt_sim.Tracer
module Hist = Grt_sim.Hist
module Trace = Grt_sim.Trace
module E = Grt.Experiments

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Json: escaping and parse/print round trip ---- *)

let json_escaping () =
  let tricky = "a\"b\\c\nd\te\x01f\x7f\xffg" in
  let s = Json.to_string (Json.Str tricky) in
  (match Json.parse s with
  | Ok (Json.Str back) -> check Alcotest.string "escape round trip" tricky back
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  check Alcotest.string "quote escape" {|"a\"b"|} (Json.escape "a\"b")

let json_rejects_garbage () =
  let bad = [ "1 x"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "" ] in
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad

let json_gen =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let scalar =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Num (float_of_int i)) (int_range (-1_000_000) 1_000_000);
               map (fun f -> Json.Num f) (float_bound_inclusive 1e9);
               map (fun s -> Json.Str s) (string_size (int_bound 16));
             ]
         in
         if n <= 0 then scalar
         else
           oneof
             [
               scalar;
               map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 2)));
               map
                 (fun l -> Json.Obj l)
                 (list_size (int_bound 4) (pair (string_size (int_bound 8)) (self (n / 2))));
             ])

let json_roundtrip =
  qtest ~count:500 "json print/parse round trip" json_gen (fun v ->
      match Json.parse (Json.to_string v) with
      | Ok back -> back = v
      | Error _ -> false)

(* ---- Hist: buckets, quantiles, merge ---- *)

let hist_bucket_boundaries () =
  check Alcotest.int "v=0" 0 (Hist.bucket_index 0);
  check Alcotest.int "v<0" 0 (Hist.bucket_index (-5));
  check Alcotest.int "v=1" 1 (Hist.bucket_index 1);
  (* bucket i >= 1 holds [2^(i-1), 2^i): both edges of each bucket land in
     the same bucket, and the next power of two lands one bucket up. *)
  for i = 1 to 20 do
    let lo = 1 lsl (i - 1) in
    let hi = (1 lsl i) - 1 in
    check Alcotest.int (Printf.sprintf "lo edge %d" lo) i (Hist.bucket_index lo);
    check Alcotest.int (Printf.sprintf "hi edge %d" hi) i (Hist.bucket_index hi);
    check Alcotest.int (Printf.sprintf "next pow2 %d" (hi + 1)) (i + 1) (Hist.bucket_index (hi + 1))
  done

let hist_exact_stats () =
  let h = Hist.create () in
  List.iter (Hist.observe h) [ 3; 17; 17; 1024; 0 ];
  check Alcotest.int "count" 5 (Hist.count h);
  check Alcotest.int64 "sum" 1061L (Hist.sum h);
  check Alcotest.int "min" 0 (Hist.min_value h);
  check Alcotest.int "max" 1024 (Hist.max_value h)

let samples_gen = QCheck2.Gen.(list_size (int_range 1 200) (int_bound 100_000))

let hist_quantile_monotone =
  qtest "quantile monotone and clamped"
    QCheck2.Gen.(pair samples_gen (list_size (int_bound 20) (float_bound_inclusive 1.0)))
    (fun (samples, qs) ->
      let h = Hist.create () in
      List.iter (Hist.observe h) samples;
      let lo = float_of_int (Hist.min_value h) and hi = float_of_int (Hist.max_value h) in
      let qs = List.sort_uniq compare (0.0 :: 1.0 :: qs) in
      let vs = List.map (Hist.quantile h) qs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      monotone vs && List.for_all (fun v -> v >= lo && v <= hi) vs)

let hist_merge_equals_union =
  qtest "merge = observing the concatenation" QCheck2.Gen.(pair samples_gen samples_gen)
    (fun (xs, ys) ->
      let a = Hist.create () and b = Hist.create () and c = Hist.create () in
      List.iter (Hist.observe a) xs;
      List.iter (Hist.observe b) ys;
      List.iter (Hist.observe c) (xs @ ys);
      Hist.merge ~into:a b;
      Hist.count a = Hist.count c
      && Hist.sum a = Hist.sum c
      && Hist.min_value a = Hist.min_value c
      && Hist.max_value a = Hist.max_value c
      &&
      let rec buckets_equal i =
        i >= Hist.buckets || (Hist.bucket_count a i = Hist.bucket_count c i && buckets_equal (i + 1))
      in
      buckets_equal 0)

(* ---- Tracer: self/total attribution, exception safety, Chrome export ---- *)

let tracer_self_total () =
  let clock = Clock.create () in
  let tr = Tracer.create clock in
  Tracer.with_span tr ~cat:Tracer.Commit ~name:"outer" (fun () ->
      Clock.advance_s clock 0.006;
      Tracer.with_span tr ~cat:Tracer.Link_exchange ~name:"inner" (fun () ->
          Clock.advance_s clock 0.004));
  check Alcotest.int "two spans" 2 (Tracer.span_count tr);
  check Alcotest.int "all closed" 0 (Tracer.open_depth tr);
  let commit = List.assoc Tracer.Commit (Tracer.summary tr) in
  let link = List.assoc Tracer.Link_exchange (Tracer.summary tr) in
  check Alcotest.int64 "outer total = 10 ms" 10_000_000L commit.Tracer.total_ns;
  check Alcotest.int64 "outer self = 6 ms" 6_000_000L commit.Tracer.self_ns;
  check Alcotest.int64 "inner self = total = 4 ms" 4_000_000L link.Tracer.self_ns;
  check Alcotest.int "summary covers every category"
    (List.length Tracer.all_categories)
    (List.length (Tracer.summary tr))

let tracer_exception_safety () =
  let clock = Clock.create () in
  let tr = Tracer.create clock in
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      Tracer.with_span tr ~cat:Tracer.Rollback_recovery ~name:"outer" (fun () ->
          Tracer.with_span tr ~cat:Tracer.Commit ~name:"inner" (fun () ->
              Clock.advance_s clock 0.001;
              failwith "boom")));
  check Alcotest.int "both spans closed on unwind" 2 (Tracer.span_count tr);
  check Alcotest.int "stack unwound" 0 (Tracer.open_depth tr)

(* Walk a parsed Chrome trace: every "E" must close the matching open "B"
   (same name), instants are self-contained, and the stream ends balanced. *)
let assert_balanced_chrome json_text =
  match Json.parse json_text with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok (Json.Arr events) ->
    let str field ev =
      match Json.member field ev with
      | Some (Json.Str s) -> s
      | _ -> Alcotest.failf "event missing %S" field
    in
    let stack =
      List.fold_left
        (fun stack ev ->
          match str "ph" ev with
          | "B" -> str "name" ev :: stack
          | "E" -> (
            match stack with
            | top :: rest ->
              check Alcotest.string "E closes the open B" top (str "name" ev);
              rest
            | [] -> Alcotest.fail "E with no open B")
          | "i" ->
            check Alcotest.string "instant scope" "t" (str "s" ev);
            stack
          | ph -> Alcotest.failf "unexpected phase %S" ph)
        [] events
    in
    check Alcotest.int "stream ends balanced" 0 (List.length stack);
    List.length events
  | Ok _ -> Alcotest.fail "trace is not a JSON array"

let tracer_chrome_export () =
  let clock = Clock.create () in
  let tr = Tracer.create clock in
  Tracer.with_span tr ~cat:Tracer.Establish ~args:[ ("nonce", "a\"b\\c\nd") ] ~name:"establish"
    (fun () ->
      Clock.advance_s clock 0.002;
      Tracer.instant tr ~cat:Tracer.Establish "attested";
      Tracer.with_span tr ~cat:Tracer.Link_exchange ~name:"round_trip" (fun () ->
          Clock.advance_s clock 0.001));
  Tracer.with_span tr ~cat:Tracer.Boot ~name:"boot" (fun () -> Clock.advance_s clock 0.003);
  let n = assert_balanced_chrome (Tracer.to_chrome_json tr) in
  (* 3 spans -> 3 B + 3 E, plus 1 instant. *)
  check Alcotest.int "event count" 7 n

(* ---- Trace: JSONL export of typed events ---- *)

let trace_jsonl () =
  let clock = Clock.create () in
  let t = Trace.create clock in
  Trace.event t (Trace.Retransmit { op = "round_trip"; attempt = 2; outage = false });
  Trace.event t (Trace.Rollback { site = "queue_submit"; reg = "CMD"; predicted = 1L; actual = 2L });
  Trace.event t (Trace.Evict { label = "MNIST/\"quoted\""; client = 3; blob_bytes = 10 });
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl t)) in
  check Alcotest.int "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj fields) ->
        if not (List.mem_assoc "ts_ns" fields && List.mem_assoc "topic" fields) then
          Alcotest.failf "line lacks ts_ns/topic: %s" line
      | Ok _ | Error _ -> Alcotest.failf "bad JSONL line: %s" line)
    lines

(* ---- Session fixture: one observed run, one default run ---- *)

let record ?(observe = false) () =
  Grt.Orchestrate.record ~observe ~profile:Grt_net.Profile.wifi ~mode:Grt.Mode.Ours_mds
    ~sku:Grt_gpu.Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed:42L ()

let observed = lazy (record ~observe:true ())
let default = lazy (record ())

let observation_is_zero_cost () =
  let o = Lazy.force observed and d = Lazy.force default in
  check Alcotest.bool "signed blob identical" true
    (Bytes.equal o.Grt.Orchestrate.blob d.Grt.Orchestrate.blob);
  check (Alcotest.float 0.0) "virtual delay identical" d.Grt.Orchestrate.total_s
    o.Grt.Orchestrate.total_s;
  check
    Alcotest.(list (pair string int))
    "counters identical"
    (Grt_sim.Metrics.to_alist d.Grt.Orchestrate.counters)
    (Grt_sim.Metrics.to_alist o.Grt.Orchestrate.counters);
  check Alcotest.bool "default run carries no tracer" true (d.Grt.Orchestrate.tracer = None);
  check Alcotest.bool "default run carries no hists" true
    (Grt_sim.Metrics.hists d.Grt.Orchestrate.counters = None)

let session_trace_balanced () =
  let o = Lazy.force observed in
  match o.Grt.Orchestrate.tracer with
  | None -> Alcotest.fail "observed run lost its tracer"
  | Some tr ->
    check Alcotest.int "session unwound cleanly" 0 (Tracer.open_depth tr);
    let n = assert_balanced_chrome (Tracer.to_chrome_json tr) in
    check Alcotest.bool "session produced spans" true (n > 0);
    let establish = List.assoc Tracer.Establish (Tracer.summary tr) in
    let link = List.assoc Tracer.Link_exchange (Tracer.summary tr) in
    check Alcotest.bool "establish traced" true (establish.Tracer.spans > 0);
    check Alcotest.bool "link exchanges traced" true (link.Tracer.spans > 0)

let session_histograms_populated () =
  let o = Lazy.force observed in
  match Grt_sim.Metrics.hists o.Grt.Orchestrate.counters with
  | None -> Alcotest.fail "observed run lost its histograms"
  | Some hs ->
    let rtt = Hist.get hs Hist.Rtt_ns in
    check Alcotest.bool "RTTs observed" true (Hist.count rtt > 0);
    check Alcotest.bool "RTT p50 positive" true (Hist.quantile rtt 0.5 > 0.);
    let commit = Hist.get hs Hist.Commit_accesses in
    check Alcotest.int "commit batches match the counter"
      (Grt_sim.Metrics.get_int o.Grt.Orchestrate.counters Grt_sim.Metrics.Commits_total)
      (Hist.count commit)

let report_of_observed () =
  let o = Lazy.force observed in
  Grt.Report.of_outcome ~workload:"MNIST" ~mode:"OursMDS" ~profile:"wifi" ~seed:42L o

let report_roundtrip_validates () =
  let report = report_of_observed () in
  (match Grt.Report.validate report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in-memory report invalid: %s" e);
  match Json.parse (Json.to_string report) with
  | Error e -> Alcotest.failf "report does not reparse: %s" e
  | Ok back -> (
    check Alcotest.bool "reparse is exact" true (back = report);
    match Grt.Report.validate back with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reparsed report invalid: %s" e)

let report_validate_rejects () =
  let reject what j =
    match Grt.Report.validate j with
    | Ok () -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  reject "a non-object" (Json.Arr []);
  reject "a wrong schema" (Json.Obj [ ("schema", Json.Str "nope") ]);
  match report_of_observed () with
  | Json.Obj fields ->
    reject "a report without a summary"
      (Json.Obj (List.filter (fun (k, _) -> k <> "summary") fields));
    reject "a future version"
      (Json.Obj (List.map (fun (k, v) -> if k = "version" then (k, Json.int 99) else (k, v)) fields))
  | _ -> Alcotest.fail "report is not an object"

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let report_timeline_renders () =
  let text = Format.asprintf "%a" Grt.Report.pp_timeline (report_of_observed ()) in
  List.iter
    (fun needle ->
      if not (contains ~needle text) then Alcotest.failf "timeline lacks %S:\n%s" needle text)
    [ "session: MNIST"; "phases"; "distributions" ];
  (* an unobserved session's report validates; its missing phases print a
     placeholder instead of failing *)
  let d = Lazy.force default in
  let bare = Grt.Report.of_outcome ~workload:"MNIST" ~mode:"OursMDS" ~profile:"wifi" ~seed:42L d in
  (match Grt.Report.validate bare with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unobserved report invalid: %s" e);
  let text = Format.asprintf "%a" Grt.Report.pp_timeline bare in
  if not (contains ~needle:"phases: absent" text) then
    Alcotest.failf "unobserved timeline lacks the phases placeholder:\n%s" text

(* ---- Multi-track Chrome export: fleet timelines ---- *)

let tracer_multi_track () =
  let mk advance =
    let clock = Clock.create () in
    let tr = Tracer.create clock in
    Tracer.with_span tr ~cat:Tracer.Boot ~name:"boot" (fun () -> Clock.advance_s clock advance);
    Tracer.instant tr ~cat:Tracer.Commit "mark";
    tr
  in
  let track tid name offset_ns tr =
    { Tracer.track_tid = tid; track_name = name; track_offset_ns = offset_ns; track_tracer = tr }
  in
  let tracks =
    [
      track 0 "service" 0L (mk 0.001);
      track 1 "client-0" 5_000_000L (mk 0.002);
      track 2 "client-1" 9_000_000L (mk 0.002);
      (* a promoted waiter re-registers its client's lane: first name wins *)
      track 1 "client-0-dup" 5_000_000L (mk 0.001);
    ]
  in
  match Json.parse (Tracer.tracks_chrome_json tracks) with
  | Error e -> Alcotest.failf "multi-track export is not valid JSON: %s" e
  | Ok (Json.Arr events) ->
    let str field ev =
      match Json.member field ev with Some (Json.Str s) -> s | _ -> "?"
    in
    let inum field ev =
      match Json.member field ev with Some (Json.Num n) -> int_of_float n | _ -> -1
    in
    let metas, spans = List.partition (fun ev -> str "ph" ev = "M") events in
    check Alcotest.int "process_name + one thread_name per distinct tid" 4 (List.length metas);
    let thread_name tid =
      List.filter_map
        (fun ev ->
          if str "name" ev = "thread_name" && inum "tid" ev = tid then
            match Json.member "args" ev with Some a -> Some (str "name" a) | None -> None
          else None)
        metas
    in
    check Alcotest.(list string) "first registration names the lane" [ "client-0" ] (thread_name 1);
    (* per-tid streams are balanced and shifted by the track offset (µs) *)
    List.iter
      (fun (tid, offset_us) ->
        let evs = List.filter (fun ev -> inum "tid" ev = tid) spans in
        let bs = List.filter (fun ev -> str "ph" ev = "B") evs in
        let es = List.filter (fun ev -> str "ph" ev = "E") evs in
        check Alcotest.int (Printf.sprintf "tid %d balanced" tid) (List.length bs)
          (List.length es);
        List.iter
          (fun ev ->
            if inum "ts" ev < offset_us then
              Alcotest.failf "tid %d event at ts=%d before its offset %d" tid (inum "ts" ev)
                offset_us)
          evs)
      [ (0, 0); (1, 5_000); (2, 9_000) ]
  | Ok _ -> Alcotest.fail "multi-track export is not a JSON array"

(* ---- Memo-cache profiling registry ---- *)

let memo_stats_registry () =
  let module M = Grt_util.Memo_stats in
  let m = M.register "test.memo" in
  check Alcotest.bool "register is idempotent" true (M.register "test.memo" == m);
  M.reset_counters ();
  M.miss m;
  M.added m ~bytes:100;
  M.hit m;
  M.hit m;
  M.miss m;
  M.mismatch m;
  let s = M.snapshot m in
  check Alcotest.int "hits" 2 s.M.s_hits;
  check Alcotest.int "misses" 2 s.M.s_misses;
  check Alcotest.int "mismatches" 1 s.M.s_mismatches;
  check Alcotest.int "resident entries" 1 s.M.s_resident;
  check Alcotest.int "resident bytes" 100 s.M.s_resident_bytes;
  (* a generation dropped while another stays: the gauges fall by exactly
     what left *)
  M.added m ~bytes:40;
  M.added m ~bytes:30;
  M.dropped m ~entries:2 ~bytes:100;
  let s = M.snapshot m in
  check Alcotest.int "dropped entries are evictions" 2 s.M.s_evictions;
  check Alcotest.int "the rest stays resident" 1 s.M.s_resident;
  check Alcotest.int "its bytes stay resident" 70 s.M.s_resident_bytes;
  (match M.snap_json s with
  | Json.Obj fields ->
    List.iter
      (fun k ->
        if not (List.mem_assoc k fields) then Alcotest.failf "snap_json lacks %S" k)
      [ "hits"; "misses"; "mismatches"; "evictions"; "resident"; "resident_bytes" ]
  | _ -> Alcotest.fail "snap_json is not an object");
  (* the real hot-path memos report through the registry: a repeated encode
     is a hit on rc.encode *)
  M.reset_counters ();
  let page = Bytes.make 4096 'x' in
  Bytes.set page 17 'y';
  ignore (Grt_util.Range_coder.encode page);
  ignore (Grt_util.Range_coder.encode page);
  let rc =
    match List.find_opt (fun c -> M.name c = "rc.encode") (M.all ()) with
    | Some c -> M.snapshot c
    | None -> Alcotest.fail "rc.encode never registered"
  in
  check Alcotest.bool "second encode hits the memo" true (rc.M.s_hits >= 1);
  (* rc.encode's gauges cover both generations: at least one entry, each
     of which holds at least its coded bytes, and no more bytes than the
     bound it declares (which its JSON reports; an unbounded memo's omits
     it) *)
  if rc.M.s_resident < 1 then Alcotest.failf "rc.encode resident %d" rc.M.s_resident;
  if rc.M.s_resident_bytes < rc.M.s_resident then
    Alcotest.failf "rc.encode resident bytes %d below its %d entries" rc.M.s_resident_bytes
      rc.M.s_resident;
  (match rc.M.s_bound_bytes with
  | Some b when rc.M.s_resident_bytes <= b -> ()
  | Some b -> Alcotest.failf "rc.encode resident bytes %d above its bound %d" rc.M.s_resident_bytes b
  | None -> Alcotest.fail "rc.encode declares no byte bound");
  let has_bound s =
    match M.snap_json s with Json.Obj fields -> List.mem_assoc "bound_bytes" fields | _ -> false
  in
  check Alcotest.bool "rc.encode reports its bound" true (has_bound rc);
  check Alcotest.bool "an unbounded memo reports none" false (has_bound (M.snapshot m))

(* ---- Fleet reports: round trip, rendering, version skew ---- *)

let tiny_fleet =
  lazy
    (let options =
       {
         Grt.Service.default_fleet with
         Grt.Service.clients = 12;
         mean_interarrival_s = 0.2;
         fault_fraction = 0.;
         degraded_fraction = 0.;
       }
     in
     E.fleet ~options ~observe:true ~wall:(fun () -> Int64.to_float (Monotonic_clock.now ()) *. 1e-9) ())

let fleet_report_of (row, svc) =
  Grt.Report.of_fleet ~fleet:(E.fleet_row_json row) ~stats:(Grt.Service.stats svc)
    ~memo:(Grt_util.Memo_stats.to_json ())
    ~observation:(Grt.Service.observation svc) ()

let fleet_report_roundtrip () =
  let report = fleet_report_of (Lazy.force tiny_fleet) in
  (match Grt.Report.validate_fleet report with
  | Ok () -> ()
  | Error e -> Alcotest.failf "in-memory fleet report invalid: %s" e);
  match Json.parse (Json.to_string report) with
  | Error e -> Alcotest.failf "fleet report does not reparse: %s" e
  | Ok back -> (
    check Alcotest.bool "reparse is exact" true (back = report);
    match Grt.Report.validate_fleet back with
    | Ok () -> ()
    | Error e -> Alcotest.failf "reparsed fleet report invalid: %s" e)

let fleet_report_renders () =
  let text = Format.asprintf "%a" Grt.Report.pp_fleet (fleet_report_of (Lazy.force tiny_fleet)) in
  List.iter
    (fun needle ->
      if not (contains ~needle text) then Alcotest.failf "fleet view lacks %S:\n%s" needle text)
    [ "hit rate"; "SLO rollup"; "turnaround_us"; "hottest keys"; "memo caches" ];
  (* an unobserved report renders the absent sections as n/a *)
  let _, svc = Lazy.force tiny_fleet in
  let bare =
    Grt.Report.of_fleet
      ~fleet:(Json.Obj [ ("label", Json.Str "x"); ("clients", Json.int 0) ])
      ~stats:(Grt.Service.stats svc) ~observation:None ()
  in
  (match Grt.Report.validate_fleet bare with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unobserved fleet report invalid: %s" e);
  let text = Format.asprintf "%a" Grt.Report.pp_fleet bare in
  if not (contains ~needle:"SLO rollup: n/a" text) then
    Alcotest.failf "unobserved fleet view lacks the n/a fallback:\n%s" text

(* ---- Bench-row JSON mirrors the printed values ---- *)

let num j k = match Json.member k j with Some (Json.Num n) -> n | _ -> nan
let str j k = match Json.member k j with Some (Json.Str s) -> s | _ -> "?"
let bool_ j k = match Json.member k j with Some (Json.Bool b) -> b | _ -> false

let fault_rows_match_json () =
  let ctx = E.create_ctx () in
  let rows = E.fault_campaign ctx ~drops:[ 0.0 ] ~windows:[ 1 ] ~net:Grt_mlfw.Zoo.mnist () in
  check Alcotest.bool "campaign produced rows" true (rows <> []);
  List.iter
    (fun (r : E.fault_row) ->
      let j = E.fault_row_json r in
      check Alcotest.string "profile" r.E.profile_name (str j "profile");
      check Alcotest.int "window" r.E.window (int_of_float (num j "window"));
      check (Alcotest.float 0.0) "drop_prob" r.E.drop_prob (num j "drop_prob");
      check (Alcotest.float 0.0) "total_s" r.E.total_s (num j "total_s");
      check Alcotest.int "retransmits" r.E.retransmits (int_of_float (num j "retransmits"));
      check Alcotest.int "rollbacks" r.E.rollbacks (int_of_float (num j "rollbacks"));
      check Alcotest.bool "blob_identical" r.E.blob_identical (bool_ j "blob_identical"))
    rows

let synthetic_rows_match_json () =
  let t1 : E.table1_row =
    {
      E.workload = "MNIST";
      gpu_jobs = 14;
      rtts_m = 120;
      rtts_md = 30;
      rtts_mds = 7;
      memsync_naive_mb = 12.5;
      memsync_ours_mb = 0.25;
    }
  in
  let j = E.table1_row_json t1 in
  check Alcotest.string "workload" "MNIST" (str j "workload");
  check Alcotest.int "gpu_jobs" 14 (int_of_float (num j "gpu_jobs"));
  check Alcotest.int "rtts_mds" 7 (int_of_float (num j "rtts_mds"));
  check (Alcotest.float 0.0) "memsync_ours_mb" 0.25 (num j "memsync_ours_mb");
  let f7 : E.fig7_row =
    { E.workload = "VGG16"; delays = [ (Grt.Mode.Naive, 100.5); (Grt.Mode.Ours_mds, 12.25) ] }
  in
  let j = E.fig7_row_json f7 in
  (match Json.member "delays_s" j with
  | Some delays ->
    check (Alcotest.float 0.0) "Naive delay" 100.5 (num delays "Naive");
    check (Alcotest.float 0.0) "OursMDS delay" 12.25 (num delays "OursMDS")
  | None -> Alcotest.fail "fig7 row lacks delays_s");
  let t2 : E.table2_row =
    { E.workload = "MNIST"; native_ms = 3.5; replay_ms = 4.0; outputs_match = true }
  in
  let j = E.table2_row_json t2 in
  check (Alcotest.float 0.0) "replay_ms" 4.0 (num j "replay_ms");
  check Alcotest.bool "outputs_match" true (bool_ j "outputs_match")

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick json_escaping;
          Alcotest.test_case "rejects garbage" `Quick json_rejects_garbage;
          json_roundtrip;
        ] );
      ( "hist",
        [
          Alcotest.test_case "bucket boundaries" `Quick hist_bucket_boundaries;
          Alcotest.test_case "exact count/sum/min/max" `Quick hist_exact_stats;
          hist_quantile_monotone;
          hist_merge_equals_union;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "self vs total attribution" `Quick tracer_self_total;
          Alcotest.test_case "exception safety" `Quick tracer_exception_safety;
          Alcotest.test_case "chrome export balanced + escaped" `Quick tracer_chrome_export;
          Alcotest.test_case "trace JSONL export" `Quick trace_jsonl;
        ] );
      ( "session",
        [
          Alcotest.test_case "observation is zero-cost" `Quick observation_is_zero_cost;
          Alcotest.test_case "session trace balanced" `Quick session_trace_balanced;
          Alcotest.test_case "histograms populated" `Quick session_histograms_populated;
          Alcotest.test_case "report round-trips and validates" `Quick report_roundtrip_validates;
          Alcotest.test_case "validation rejects malformed reports" `Quick report_validate_rejects;
          Alcotest.test_case "timeline renders" `Quick report_timeline_renders;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "multi-track chrome export" `Quick tracer_multi_track;
          Alcotest.test_case "memo-stats registry" `Quick memo_stats_registry;
          Alcotest.test_case "fleet report round-trips and validates" `Quick fleet_report_roundtrip;
          Alcotest.test_case "fleet report renders (observed + n/a)" `Quick fleet_report_renders;
        ] );
      ( "bench-json",
        [
          Alcotest.test_case "fault rows match their JSON" `Quick fault_rows_match_json;
          Alcotest.test_case "synthetic rows match their JSON" `Quick synthetic_rows_match_json;
        ] );
    ]
