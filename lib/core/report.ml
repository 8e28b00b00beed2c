module Json = Grt_util.Json

let schema = "grt-session-report"
let version = 1
let fleet_schema = "grt-fleet-report"
let fleet_version = 1

let of_outcome ~workload ~mode ~profile ~seed (o : Orchestrate.record_outcome) =
  let session =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("mode", Json.Str mode);
        ("profile", Json.Str profile);
        ("seed", Json.int64 seed);
      ]
  in
  let summary =
    Json.Obj
      [
        ("total_s", Json.float o.total_s);
        ("client_energy_j", Json.float o.client_energy_j);
        ("blocking_rtts", Json.int o.blocking_rtts);
        ("sync_wire_bytes", Json.int o.sync_wire_bytes);
        ("sync_raw_bytes", Json.int o.sync_raw_bytes);
        ("commits_total", Json.int o.commits_total);
        ("commits_speculated", Json.int o.commits_speculated);
        ("accesses_total", Json.int o.accesses_total);
        ("poll_instances", Json.int o.poll_instances);
        ("poll_offloaded", Json.int o.poll_offloaded);
        ("rollbacks", Json.int o.rollbacks);
        ("rollback_s", Json.float o.rollback_s);
        ("retransmits", Json.int o.retransmits);
        ("link_downs", Json.int o.link_downs);
        ("recording_bytes", Json.int (Bytes.length o.blob));
        ("entries", Json.int (Array.length o.recording.Recording.entries));
      ]
  in
  let metrics =
    Json.Obj
      (List.map (fun (k, v) -> (k, Json.int v)) (Grt_sim.Metrics.to_alist o.counters))
  in
  let base =
    [
      ("schema", Json.Str schema);
      ("version", Json.int version);
      ("session", session);
      ("summary", summary);
      ("metrics", metrics);
    ]
  in
  let base =
    match o.hists with
    | Some hs -> base @ [ ("histograms", Grt_sim.Hist.set_json hs) ]
    | None -> base
  in
  let base =
    match o.tracer with
    | Some tr -> base @ [ ("phases", Grt_sim.Tracer.summary_json tr) ]
    | None -> base
  in
  Json.Obj base

(* ---- the fleet report ---- *)

module Hist = Grt_sim.Hist

let slo_keys =
  [
    ("turnaround_us", Hist.Svc_turnaround_us);
    ("ttfb_us", Hist.Svc_ttfb_us);
    ("coalesce_wait_us", Hist.Svc_coalesce_wait_us);
    ("turnstile_wait_us", Hist.Svc_turnstile_wait_us);
  ]

let of_fleet ~fleet ~(stats : Service.stats) ?memo ~observation () =
  let service =
    Json.Obj
      [
        ("sessions", Json.int stats.Service.sessions);
        ("recordings", Json.int stats.Service.recordings);
        ("cache_hits", Json.int stats.Service.cache_hits);
        ("cache_misses", Json.int stats.Service.cache_misses);
        ("coalesced", Json.int stats.Service.coalesced);
        ("promotions", Json.int stats.Service.promotions);
        ("failures", Json.int stats.Service.failures);
        ("evictions", Json.int stats.Service.evictions);
        ("resident", Json.int stats.Service.resident);
        ("resident_bytes", Json.int stats.Service.resident_bytes);
        ("hit_rate", Json.float (Service.hit_rate stats));
      ]
  in
  let base =
    [
      ("schema", Json.Str fleet_schema);
      ("version", Json.int fleet_version);
      ("fleet", fleet);
      ("service", service);
    ]
  in
  let base =
    match observation with
    | None -> base
    | Some (o : Service.observation) ->
      let slo =
        Json.Obj
          (List.map (fun (name, k) -> (name, Hist.summary_json (Hist.get o.Service.obs_hists k))) slo_keys)
      in
      let per_key =
        Hashtbl.fold
          (fun label turnaround acc ->
            let row =
              [
                ("label", Json.Str label);
                ("sessions", Json.int (Hist.count turnaround));
                ("turnaround_us", Hist.summary_json turnaround);
              ]
            in
            let row =
              match Hashtbl.find_opt o.Service.obs_key_ttfb label with
              | Some ttfb -> row @ [ ("ttfb_us", Hist.summary_json ttfb) ]
              | None -> row
            in
            (label, Json.Obj row) :: acc)
          o.Service.obs_key_turnaround []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map snd
      in
      base @ [ ("slo", slo); ("per_key", Json.Arr per_key) ]
  in
  let base = match memo with None -> base | Some m -> base @ [ ("memo", m) ] in
  Json.Obj base

(* ---- schema validation ---- *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let need_obj ctx = function
  | Json.Obj fields -> Ok fields
  | _ -> Error (ctx ^ ": expected an object")

let need_field ctx fields name =
  match List.assoc_opt name fields with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing %S" ctx name)

let need_num ctx fields name =
  let* v = need_field ctx fields name in
  match v with
  | Json.Num n -> Ok n
  | _ -> Error (Printf.sprintf "%s: %S must be a number" ctx name)

let need_str ctx fields name =
  let* v = need_field ctx fields name in
  match v with
  | Json.Str s -> Ok s
  | _ -> Error (Printf.sprintf "%s: %S must be a string" ctx name)

let all_ok ctx f entries =
  List.fold_left (fun acc (k, v) -> match acc with Error _ -> acc | Ok () -> f (ctx ^ "." ^ k) v) (Ok ()) entries

let validate_hist ctx v =
  let* fields = need_obj ctx v in
  let rec need = function
    | [] -> Ok ()
    | name :: rest ->
      let* _ = need_num ctx fields name in
      need rest
  in
  need [ "count"; "sum"; "min"; "max"; "p50"; "p90"; "p99" ]

let validate_phase ctx v =
  let* fields = need_obj ctx v in
  let rec need = function
    | [] -> Ok ()
    | name :: rest ->
      let* _ = need_num ctx fields name in
      need rest
  in
  need [ "total_s"; "self_s"; "spans" ]

let validate json =
  let* top = need_obj "report" json in
  let* s = need_str "report" top "schema" in
  if s <> schema then Error (Printf.sprintf "schema mismatch: %S" s)
  else
    let* v = need_num "report" top "version" in
    if int_of_float v <> version then
      Error (Printf.sprintf "version mismatch: %g (tool understands %d)" v version)
    else
      let* session = need_field "report" top "session" in
      let* sf = need_obj "session" session in
      let* _ = need_str "session" sf "workload" in
      let* _ = need_str "session" sf "mode" in
      let* _ = need_str "session" sf "profile" in
      let* _ = need_num "session" sf "seed" in
      let* summary = need_field "report" top "summary" in
      let* sm = need_obj "summary" summary in
      let rec need = function
        | [] -> Ok ()
        | name :: rest ->
          let* _ = need_num "summary" sm name in
          need rest
      in
      let* () =
        need
          [
            "total_s"; "client_energy_j"; "blocking_rtts"; "commits_total"; "commits_speculated";
            "rollbacks"; "rollback_s"; "recording_bytes"; "entries";
          ]
      in
      let* metrics = need_field "report" top "metrics" in
      let* mf = need_obj "metrics" metrics in
      let* () =
        all_ok "metrics"
          (fun ctx v -> match v with Json.Num _ -> Ok () | _ -> Error (ctx ^ ": not a number"))
          mf
      in
      let* () =
        match List.assoc_opt "histograms" top with
        | None -> Ok ()
        | Some h ->
          let* hf = need_obj "histograms" h in
          all_ok "histograms" validate_hist hf
      in
      (match List.assoc_opt "phases" top with
      | None -> Ok ()
      | Some p ->
        let* pf = need_obj "phases" p in
        all_ok "phases" validate_phase pf)

(* Lenient variant for [grt_inspect --timeline]: the schema name must still
   match (a fleet report or arbitrary JSON is a different document, not an
   older one), but the version may skew and every section is optional —
   present sections are still type-checked. Reports written by older or
   newer tools render with "n/a" holes instead of being rejected. *)
let validate_lenient json =
  let* top = need_obj "report" json in
  let* s = need_str "report" top "schema" in
  if s <> schema then Error (Printf.sprintf "schema mismatch: %S" s)
  else
    let* _ = need_num "report" top "version" in
    let check_obj name checker =
      match List.assoc_opt name top with
      | None -> Ok ()
      | Some v ->
        let* fields = need_obj name v in
        checker fields
    in
    let* () =
      check_obj "session" (fun sf ->
          all_ok "session"
            (fun ctx v ->
              match v with Json.Num _ | Json.Str _ -> Ok () | _ -> Error (ctx ^ ": bad field"))
            sf)
    in
    let* () =
      check_obj "summary" (fun sm ->
          all_ok "summary"
            (fun ctx v -> match v with Json.Num _ -> Ok () | _ -> Error (ctx ^ ": not a number"))
            sm)
    in
    let* () = check_obj "histograms" (fun hf -> all_ok "histograms" validate_hist hf) in
    check_obj "phases" (fun pf -> all_ok "phases" validate_phase pf)

let validate_fleet json =
  let* top = need_obj "fleet-report" json in
  let* s = need_str "fleet-report" top "schema" in
  if s <> fleet_schema then Error (Printf.sprintf "schema mismatch: %S" s)
  else
    let* v = need_num "fleet-report" top "version" in
    if int_of_float v <> fleet_version then
      Error (Printf.sprintf "version mismatch: %g (tool understands %d)" v fleet_version)
    else
      let* fleet = need_field "fleet-report" top "fleet" in
      let* ff = need_obj "fleet" fleet in
      let* () =
        all_ok "fleet"
          (fun ctx v ->
            match v with
            | Json.Num _ | Json.Str _ | Json.Bool _ -> Ok ()
            | _ -> Error (ctx ^ ": bad field"))
          ff
      in
      let* service = need_field "fleet-report" top "service" in
      let* sf = need_obj "service" service in
      let rec need = function
        | [] -> Ok ()
        | name :: rest ->
          let* _ = need_num "service" sf name in
          need rest
      in
      let* () =
        need
          [
            "sessions"; "recordings"; "cache_hits"; "cache_misses"; "coalesced"; "promotions";
            "failures"; "evictions"; "hit_rate";
          ]
      in
      let* () =
        match List.assoc_opt "slo" top with
        | None -> Ok ()
        | Some s ->
          let* slo = need_obj "slo" s in
          all_ok "slo" validate_hist slo
      in
      let* () =
        match List.assoc_opt "per_key" top with
        | None -> Ok ()
        | Some (Json.Arr rows) ->
          List.fold_left
            (fun acc row ->
              let* () = acc in
              let* rf = need_obj "per_key[]" row in
              let* _ = need_str "per_key[]" rf "label" in
              let* _ = need_num "per_key[]" rf "sessions" in
              let* tr = need_field "per_key[]" rf "turnaround_us" in
              validate_hist "per_key[].turnaround_us" tr)
            (Ok ()) rows
        | Some _ -> Error "per_key: expected an array"
      in
      (match List.assoc_opt "memo" top with
      | None -> Ok ()
      | Some m ->
        let* mf = need_obj "memo" m in
        all_ok "memo"
          (fun ctx v ->
            let* fields = need_obj ctx v in
            all_ok ctx
              (fun c v -> match v with Json.Num _ -> Ok () | _ -> Error (c ^ ": not a number"))
              fields)
          mf)

(* ---- human-readable timeline ---- *)

let num fields name = match List.assoc_opt name fields with Some (Json.Num n) -> n | _ -> 0.

let str fields name = match List.assoc_opt name fields with Some (Json.Str s) -> s | _ -> "?"

let pp_timeline ppf json =
  match json with
  | Json.Obj top ->
    (match List.assoc_opt "session" top with
    | Some (Json.Obj s) ->
      Format.fprintf ppf "session: %s / %s over %s (seed %.0f)@." (str s "workload")
        (str s "mode") (str s "profile") (num s "seed")
    | _ -> Format.fprintf ppf "session: n/a@.");
    (match List.assoc_opt "summary" top with
    | Some (Json.Obj s) ->
      Format.fprintf ppf "  %.2f s end to end, %.1f J, %.0f blocking RTTs, %.0f rollbacks@."
        (num s "total_s") (num s "client_energy_j") (num s "blocking_rtts") (num s "rollbacks")
    | _ -> Format.fprintf ppf "  summary: n/a@.");
    (match List.assoc_opt "phases" top with
    | Some (Json.Obj phases) ->
      Format.fprintf ppf "phases (virtual time, self / total):@.";
      List.iter
        (fun (cat, v) ->
          match v with
          | Json.Obj f when num f "spans" > 0. ->
            Format.fprintf ppf "  %-21s %9.3f s / %9.3f s  (%.0f span%s)@." cat (num f "self_s")
              (num f "total_s") (num f "spans")
              (if num f "spans" = 1. then "" else "s")
          | _ -> ())
        phases
    | _ -> Format.fprintf ppf "phases: absent (record with --trace-out or --report)@.");
    (match List.assoc_opt "histograms" top with
    | Some (Json.Obj hists) ->
      Format.fprintf ppf "distributions (p50 / p90 / p99):@.";
      List.iter
        (fun (key, v) ->
          match v with
          | Json.Obj f when num f "count" > 0. ->
            Format.fprintf ppf "  %-21s %12.0f / %12.0f / %12.0f  (n=%.0f)@." key (num f "p50")
              (num f "p90") (num f "p99") (num f "count")
          | _ -> ())
        hists
    | _ -> ())
  | _ -> Format.fprintf ppf "not a report object@."

(* ---- human-readable fleet view ---- *)

let pp_hist_line ppf name f =
  if num f "count" > 0. then
    Format.fprintf ppf "  %-21s %12.0f / %12.0f / %12.0f  (n=%.0f)@." name (num f "p50")
      (num f "p90") (num f "p99") (num f "count")
  else Format.fprintf ppf "  %-21s n/a (no samples)@." name

let pp_fleet ppf json =
  match json with
  | Json.Obj top ->
    (match List.assoc_opt "fleet" top with
    | Some (Json.Obj f) ->
      Format.fprintf ppf "fleet: %.0f clients, %.0f distinct keys@." (num f "clients")
        (num f "distinct_keys")
    | _ -> Format.fprintf ppf "fleet: n/a@.");
    (match List.assoc_opt "service" top with
    | Some (Json.Obj s) ->
      Format.fprintf ppf
        "  %.0f sessions: %.0f hits + %.0f coalesced (%.1f%% hit rate), %.0f recordings, %.0f \
         failures@."
        (num s "sessions") (num s "cache_hits") (num s "coalesced")
        (100. *. num s "hit_rate")
        (num s "recordings") (num s "failures");
      Format.fprintf ppf
        "  cache: %.0f misses, %.0f evictions, %.0f promotions, %.0f resident (%.1f KB)@."
        (num s "cache_misses") (num s "evictions") (num s "promotions") (num s "resident")
        (num s "resident_bytes" /. 1024.)
    | _ -> Format.fprintf ppf "  service: n/a@.");
    (match List.assoc_opt "slo" top with
    | Some (Json.Obj slo) ->
      Format.fprintf ppf "SLO rollup (p50 / p90 / p99):@.";
      List.iter (fun (name, v) -> match v with Json.Obj f -> pp_hist_line ppf name f | _ -> ()) slo
    | _ -> Format.fprintf ppf "SLO rollup: n/a (run with --report on an observed fleet)@.");
    (match List.assoc_opt "per_key" top with
    | Some (Json.Arr rows) when rows <> [] ->
      let rows =
        List.filter_map (fun r -> match r with Json.Obj f -> Some f | _ -> None) rows
      in
      let rows =
        List.sort (fun a b -> compare (num b "sessions") (num a "sessions")) rows
      in
      let shown = List.filteri (fun i _ -> i < 10) rows in
      Format.fprintf ppf "hottest keys (turnaround p50 / p90 / p99 µs):@.";
      List.iter
        (fun f ->
          match List.assoc_opt "turnaround_us" f with
          | Some (Json.Obj h) ->
            Format.fprintf ppf "  %-44s %5.0f sess %10.0f / %10.0f / %10.0f@." (str f "label")
              (num f "sessions") (num h "p50") (num h "p90") (num h "p99")
          | _ -> ())
        shown;
      if List.length rows > List.length shown then
        Format.fprintf ppf "  … %d more keys@." (List.length rows - List.length shown)
    | _ -> Format.fprintf ppf "per-key rollup: n/a@.");
    (match List.assoc_opt "memo" top with
    | Some (Json.Obj memos) ->
      Format.fprintf ppf "memo caches (hit / miss / mismatch / evicted, resident):@.";
      List.iter
        (fun (name, v) ->
          match v with
          | Json.Obj f ->
            Format.fprintf ppf "  %-21s %8.0f / %6.0f / %4.0f / %6.0f  %5.0f (%.1f KB)@." name
              (num f "hits") (num f "misses") (num f "mismatches") (num f "evictions")
              (num f "resident")
              (num f "resident_bytes" /. 1024.)
          | _ -> ())
        memos
    | _ -> ())
  | _ -> Format.fprintf ppf "not a fleet report object@."
