(* [grt_bench compare A.jsonl B.jsonl]: judge B against A.

   Each file holds run records (one JSON object per line, as [--json]
   appends them). For every workload and end-to-end metric the two sides'
   untraced runs give a median and quartiles; B regresses when its median
   is worse than A's by more than the metric's bound. Where either side's
   spread (interquartile range over median) is wider than the bound, the
   metric is unresolved rather than unchanged, unless every B run beats
   every A run. Traced runs of the same workload and seed must also agree
   bit for bit on every simulated ("sim.") metric. *)

module Json = Grt_util.Json

type record = {
  workload : string;
  seed : int;
  traced : bool;
  metrics : (string * float) list;
}

let parse_record line =
  match Json.parse line with
  | Error _ -> None
  | Ok o -> (
    let str k = Option.bind (Json.member k o) Json.to_str in
    let num k = Option.bind (Json.member k o) Json.to_num in
    match (str "workload", num "seed", num "trace", Option.bind (Json.member "metrics" o) Json.to_obj) with
    | Some workload, Some seed, Some trace, Some ms ->
      Some
        {
          workload;
          seed = int_of_float seed;
          traced = trace <> 0.;
          metrics =
            List.filter_map
              (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
              ms;
        }
    | _ -> None)

let load path =
  Spec.read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map parse_record

let values records ~workload ~traced name =
  List.filter_map
    (fun r ->
      if String.equal r.workload workload && r.traced = traced then List.assoc_opt name r.metrics
      else None)
    records

let run ~(spec : Spec.t) a_path b_path =
  let a = load a_path and b = load b_path in
  let workloads =
    List.fold_left (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ]) [] (a @ b)
  in
  let regressions = ref 0 and unresolved = ref 0 and mismatches = ref 0 in
  Printf.printf "%-12s %-14s %28s %28s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "worse" "bound" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (m : Spec.e2e) ->
          let va = values a ~workload ~traced:false m.Spec.name
          and vb = values b ~workload ~traced:false m.Spec.name in
          if va = [] || vb = [] then
            Printf.printf "%-12s %-14s %28s %28s %8s %6.2f  missing\n" workload m.Spec.name
              (string_of_int (List.length va) ^ " runs") (string_of_int (List.length vb) ^ " runs")
              "" m.Spec.bound
          else begin
            let q1a, meda, q3a = Stats.quartiles va and q1b, medb, q3b = Stats.quartiles vb in
            let spread q1 q3 med = if med = 0. then infinity else (q3 -. q1) /. Float.abs med in
            let worse =
              if meda = 0. then 0.
              else if m.Spec.higher_better then (meda -. medb) /. Float.abs meda
              else (medb -. meda) /. Float.abs meda
            in
            let beats x y = if m.Spec.higher_better then x > y else x < y in
            let all_better =
              List.for_all (fun x -> List.for_all (fun y -> beats x y) va) vb
            in
            let verdict =
              if spread q1a q3a meda > m.Spec.bound || spread q1b q3b medb > m.Spec.bound then
                if all_better then "better"
                else begin
                  incr unresolved;
                  "unresolved"
                end
              else if worse > m.Spec.bound then begin
                incr regressions;
                "REGRESSION"
              end
              else "ok"
            in
            let side med q1 q3 n = Printf.sprintf "%.4g [%.4g, %.4g] n=%d" med q1 q3 n in
            Printf.printf "%-12s %-14s %28s %28s %+7.1f%% %6.2f  %s\n" workload m.Spec.name
              (side meda q1a q3a (List.length va))
              (side medb q1b q3b (List.length vb))
              (100. *. worse) m.Spec.bound verdict
          end)
        spec.Spec.end_to_end)
    workloads;
  (* Exact simulated metrics: same workload, same seed, bit-identical. *)
  let pairs = ref 0 in
  List.iter
    (fun ra ->
      if ra.traced then
        match List.find_opt (fun rb -> rb.traced && rb.workload = ra.workload && rb.seed = ra.seed) b with
        | None -> ()
        | Some rb ->
          incr pairs;
          List.iter
            (fun (k, v) ->
              if String.length k > 4 && String.sub k 0 4 = "sim." then
                match List.assoc_opt k rb.metrics with
                | Some w when Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w) -> ()
                | other ->
                  incr mismatches;
                  Printf.printf "exact mismatch: %s seed %d %s: A %.17g, B %s\n" ra.workload ra.seed k v
                    (match other with Some w -> Printf.sprintf "%.17g" w | None -> "missing"))
            ra.metrics)
    a;
  Printf.printf "%d regression(s), %d unresolved, %d traced pair(s) checked, %d exact mismatch(es)\n"
    !regressions !unresolved !pairs !mismatches;
  if !regressions > 0 || !mismatches > 0 then 1 else 0
