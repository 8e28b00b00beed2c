(* Tests for the simulation substrate: virtual clock, counters, energy
   meter, trace ring and the cost-constant invariants the model relies on. *)

module Clock = Grt_sim.Clock
module Counters = Grt_sim.Counters
module Metrics = Grt_sim.Metrics
module Energy = Grt_sim.Energy
module Trace = Grt_sim.Trace
module Costs = Grt_sim.Costs

let check = Alcotest.check

(* ---- Clock ---- *)

let clock_starts_at_zero () =
  let c = Clock.create () in
  check Alcotest.int64 "zero" 0L (Clock.now_ns c);
  check (Alcotest.float 1e-12) "zero s" 0.0 (Clock.now_s c)

let clock_advances () =
  let c = Clock.create () in
  Clock.advance_ns c 1500L;
  Clock.advance_s c 0.5e-6;
  check Alcotest.int64 "sum" 2000L (Clock.now_ns c)

let clock_rejects_negative () =
  let c = Clock.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance_ns: negative delta")
    (fun () -> Clock.advance_ns c (-1L))

let clock_advance_to () =
  let c = Clock.create () in
  Clock.advance_ns c 100L;
  Clock.advance_to c 50L;
  check Alcotest.int64 "no backwards move" 100L (Clock.now_ns c);
  Clock.advance_to c 400L;
  check Alcotest.int64 "forward" 400L (Clock.now_ns c)

(* The clock advance is the simulation's hottest operation; with the
   energy meter attached (as on every replay client) it must not allocate. *)
let clock_advance_allocates_nothing () =
  let c = Clock.create () in
  let e = Energy.create c in
  Clock.advance_int c 1;
  let w0 = Gc.minor_words () in
  Clock.advance_int c 5;
  let one = Gc.minor_words () -. w0 in
  check (Alcotest.float 0.) "minor words for one advance" 0. one;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Clock.advance_int c i
  done;
  let many = Gc.minor_words () -. w0 in
  check (Alcotest.float 0.) "minor words for 10k advances" 0. many;
  check Alcotest.bool "the meter integrated" true (Energy.total_j e > 0.)

let clock_time_span () =
  let c = Clock.create () in
  let v, span =
    Clock.time c (fun () ->
        Clock.advance_s c 0.25;
        "done")
  in
  check Alcotest.string "value" "done" v;
  check (Alcotest.float 1e-9) "span" 0.25 (Clock.span_s span)

(* ---- Counters: the Metrics store and the string-name shim ---- *)

let counters_basic () =
  let t = Metrics.create () in
  Metrics.incr t Metrics.Net_blocking_rtts;
  Metrics.add t Metrics.Net_blocking_rtts 4;
  check Alcotest.int "known name" 5 (Counters.get_int t "net.blocking_rtts");
  check Alcotest.int "untouched key" 0 (Counters.get_int t "net.drops");
  check Alcotest.int "unknown name reads zero" 0 (Counters.get_int t "no.such.counter")

let counters_alist_sorted () =
  let t = Metrics.create () in
  Metrics.incr t Metrics.Svc_sessions;
  Metrics.add t Metrics.Net_drops 0;
  Metrics.add64 t Metrics.Commits_total 7L;
  check
    Alcotest.(list (pair string int))
    "touched keys, sorted by name"
    [ ("commits.total", 7); ("net.drops", 0); ("svc.sessions", 1) ]
    (Metrics.to_alist t)

let counters_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.add a Metrics.Net_msgs 2;
  Metrics.add b Metrics.Net_msgs 3;
  Metrics.add b Metrics.Reg_reads 1;
  Metrics.add b Metrics.Net_drops 0;
  Metrics.merge_into ~dst:a ~src:b;
  check
    Alcotest.(list (pair string int))
    "sums values, unions touched keys"
    [ ("net.drops", 0); ("net.msgs", 5); ("reg.reads", 1) ]
    (Metrics.to_alist a)

(* ---- Metrics ---- *)

(* The string-keyed counter table the dense store replaced, kept as the
   reference model: a cell is created on a name's first bump (by any
   amount, 0 included), and only created cells are listed or printed. *)
module Counters_model = struct
  type t = (string, int64 ref) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add64 t name v =
    match Hashtbl.find_opt t name with
    | Some c -> c := Int64.add !c v
    | None -> Hashtbl.add t name (ref v)

  let get t name = match Hashtbl.find_opt t name with Some c -> !c | None -> 0L

  let to_alist t =
    Hashtbl.fold (fun k c acc -> (k, !c) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let merge_into ~dst ~src = List.iter (fun (k, v) -> add64 dst k v) (to_alist src)
  let pp ppf t = List.iter (fun (k, v) -> Format.fprintf ppf "%-40s %Ld@\n" k v) (to_alist t)
end

type op = Add of Metrics.key * int | Add64 of Metrics.key * int64 | Incr of Metrics.key

let apply_op m model = function
  | Add (k, v) ->
    Metrics.add m k v;
    Counters_model.add64 model (Metrics.name k) (Int64.of_int v)
  | Add64 (k, v) ->
    Metrics.add64 m k v;
    Counters_model.add64 model (Metrics.name k) v
  | Incr k ->
    Metrics.incr m k;
    Counters_model.add64 model (Metrics.name k) 1L

let show_op = function
  | Add (k, v) -> Printf.sprintf "add %s %d" (Metrics.name k) v
  | Add64 (k, v) -> Printf.sprintf "add64 %s %Ld" (Metrics.name k) v
  | Incr k -> Printf.sprintf "incr %s" (Metrics.name k)

let gen_ops =
  let open QCheck2.Gen in
  (* A few hot keys make repeated bumps of one key likely. *)
  let key = oneof [ oneofl Metrics.all; oneofl Metrics.[ Net_msgs; Reg_reads; Svc_sessions ] ] in
  let value = oneof [ return 0; int_range (-1000) 1000; int_range 0 (1 lsl 40) ] in
  let op =
    oneof
      [
        map2 (fun k v -> Add (k, v)) key value;
        map2 (fun k v -> Add64 (k, Int64.of_int v)) key value;
        map (fun k -> Incr k) key;
      ]
  in
  list_size (int_bound 60) op

let model_alist model = List.map (fun (k, v) -> (k, Int64.to_int v)) (Counters_model.to_alist model)

let agrees m model =
  List.for_all (fun k -> Int64.equal (Metrics.get m k) (Counters_model.get model (Metrics.name k))) Metrics.all
  && Metrics.to_alist m = model_alist model
  && String.equal (Format.asprintf "%a" Metrics.pp m) (Format.asprintf "%a" Counters_model.pp model)

let metrics_match_counters_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"store == string-keyed counter model"
       ~print:(fun (xs, ys) ->
         Printf.sprintf "dst: [%s]\nsrc: [%s]" (String.concat "; " (List.map show_op xs))
           (String.concat "; " (List.map show_op ys)))
       QCheck2.Gen.(pair gen_ops gen_ops)
       (fun (xs, ys) ->
         let run ops =
           let m = Metrics.create () and model = Counters_model.create () in
           List.iter (apply_op m model) ops;
           (m, model)
         in
         let dst, dst_model = run xs and src, src_model = run ys in
         let before = agrees dst dst_model && agrees src src_model in
         Metrics.merge_into ~dst ~src;
         Counters_model.merge_into ~dst:dst_model ~src:src_model;
         before && agrees dst dst_model && agrees src src_model))

let metrics_bump_allocates_nothing () =
  let m = Metrics.create () in
  let keys = Array.of_list Metrics.all in
  let n = Array.length keys in
  let w0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    Metrics.add m keys.(i mod n) i
  done;
  let words = Gc.minor_words () -. w0 in
  check (Alcotest.float 0.) "minor words for 10k bumps" 0. words;
  check Alcotest.int "bumps landed" (9_999 * 10_000 / 2)
    (List.fold_left (fun acc k -> acc + Metrics.get_int m k) 0 Metrics.all)

let metrics_names_roundtrip () =
  List.iter
    (fun key ->
      match Metrics.of_name (Metrics.name key) with
      | Some k -> check Alcotest.bool "roundtrip" true (k = key)
      | None -> Alcotest.failf "of_name failed for %s" (Metrics.name key))
    Metrics.all;
  check (Alcotest.option Alcotest.reject) "unknown name" None (Metrics.of_name "no.such.counter");
  (* Names must stay unique or two keys would share a report entry. *)
  let names = List.map Metrics.name Metrics.all in
  check Alcotest.int "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let metrics_pp_matches_counters () =
  (* Dumps keep the string-keyed table's layout byte for byte, zero-valued
     touched keys included. *)
  let m = Metrics.create () and model = Counters_model.create () in
  List.iter (apply_op m model)
    Metrics.
      [
        Add (Net_blocking_rtts, 7);
        Add64 (Sync_up_wire_bytes, 1234L);
        Add (Net_drops, 0);
        Incr Svc_promotions;
        Add (Net_blocking_rtts, -2);
      ];
  check Alcotest.string "pp byte-identical"
    (Format.asprintf "%a" Counters_model.pp model)
    (Format.asprintf "%a" Metrics.pp m);
  check Alcotest.string "first line" (Printf.sprintf "%-40s 5\n" "net.blocking_rtts")
    (List.hd (String.split_on_char '\n' (Format.asprintf "%a" Metrics.pp m)) ^ "\n")

(* ---- Energy ---- *)

let energy_base_rail_integrates () =
  let c = Clock.create () in
  let e = Energy.create c in
  Clock.advance_s c 2.0;
  check (Alcotest.float 1e-9) "soc base only"
    (2.0 *. Energy.rail_power_w Energy.Soc_base)
    (Energy.total_j e)

let energy_rail_toggling () =
  let c = Clock.create () in
  let e = Energy.create c in
  Energy.set_active e Energy.Gpu_busy true;
  Clock.advance_s c 1.0;
  Energy.set_active e Energy.Gpu_busy false;
  Clock.advance_s c 1.0;
  let by_rail = Energy.by_rail_j e in
  check (Alcotest.float 1e-9) "gpu for 1s"
    (Energy.rail_power_w Energy.Gpu_busy)
    (List.assoc Energy.Gpu_busy by_rail)

let energy_with_rail_restores () =
  let c = Clock.create () in
  let e = Energy.create c in
  (try Energy.with_rail e Energy.Cpu_busy (fun () -> failwith "boom") with Failure _ -> ());
  Clock.advance_s c 1.0;
  check (Alcotest.float 1e-9) "cpu rail off after exception" 0.0
    (List.assoc Energy.Cpu_busy (Energy.by_rail_j e))

let energy_charge_j () =
  let c = Clock.create () in
  let e = Energy.create c in
  Energy.charge_j e Energy.Radio_tx 1.5;
  check (Alcotest.float 1e-9) "direct charge" 1.5 (List.assoc Energy.Radio_tx (Energy.by_rail_j e))

let energy_reset () =
  let c = Clock.create () in
  let e = Energy.create c in
  Clock.advance_s c 1.0;
  Energy.reset e;
  check (Alcotest.float 1e-9) "reset" 0.0 (Energy.total_j e)

(* The meter integrates when read; a model integrating on every advance,
   as the meter once did, must read the same joules on every rail, bit for
   bit, through advances, toggles, resets and direct charges. *)
let energy_matches_per_advance_model =
  let rails = Energy.[| Soc_base; Cpu_busy; Radio_tx; Radio_rx; Gpu_busy |] in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"read-time integration == per-advance model"
       ~print:QCheck2.Print.(list (pair int int))
       QCheck2.Gen.(list_size (int_bound 60) (pair (int_bound 4) (int_bound 5_000_000)))
       (fun ops ->
         let c = Clock.create () in
         Clock.advance_int c 77;
         let e = Energy.create c in
         let active = Array.make 5 false and ns = Array.make 5 0 and joules = Array.make 5 0. in
         active.(0) <- true;
         let model_j i =
           joules.(i) +. (Energy.rail_power_w rails.(i) *. float_of_int ns.(i) *. 1e-9)
         in
         List.iter
           (fun (op, x) ->
             match op with
             | 0 | 1 ->
               Clock.advance_int c x;
               Array.iteri (fun i on -> if on then ns.(i) <- ns.(i) + x) active
             | 2 ->
               let i = 1 + (x mod 4) in
               active.(i) <- not active.(i);
               Energy.set_active e rails.(i) active.(i)
             | 3 ->
               Energy.charge_j e rails.(x mod 5) 0.25;
               joules.(x mod 5) <- joules.(x mod 5) +. 0.25
             | _ ->
               if x mod 7 = 0 then begin
                 Energy.reset e;
                 Array.fill ns 0 5 0;
                 Array.fill joules 0 5 0.
               end)
           ops;
         List.for_all
           (fun (r, j) ->
             let i = ref 0 in
             Array.iteri (fun k r' -> if r' = r then i := k) rails;
             Float.equal j (model_j !i))
           (Energy.by_rail_j e)))

(* ---- Trace ---- *)

let trace_recent_order () =
  let c = Clock.create () in
  let t = Trace.create ~capacity:8 c in
  Trace.event t (Trace.Window_stall { inflight = 1 });
  Clock.advance_ns c 5L;
  Trace.event t (Trace.Replay_live { replayed = 2 });
  match Trace.recent t 2 with
  | [ e2; e1 ] ->
    check Alcotest.string "most recent first" "replay complete (2 entries); going live"
      (Trace.detail e2);
    check Alcotest.string "older second" "window stall (1 in flight)" (Trace.detail e1);
    check Alcotest.int64 "timestamped" 5L e2.Trace.at_ns
  | _ -> Alcotest.fail "expected two events"

let trace_topic_filter () =
  let c = Clock.create () in
  let t = Trace.create c in
  Trace.event t (Trace.Window_stall { inflight = 1 });
  Trace.event t (Trace.Commit { site = "s"; accesses = 2 });
  Trace.event t (Trace.Window_stall { inflight = 3 });
  check Alcotest.int "filtered" 2 (List.length (Trace.recent ~topic:"link" t 10))

let trace_ring_eviction () =
  let c = Clock.create () in
  let t = Trace.create ~capacity:4 c in
  for i = 1 to 10 do
    Trace.event t (Trace.Window_stall { inflight = i })
  done;
  check Alcotest.int "total counts all" 10 (Trace.count t);
  let recents = Trace.recent t 10 in
  check Alcotest.int "bounded by capacity" 4 (List.length recents);
  check Alcotest.string "newest survives" "window stall (10 in flight)"
    (Trace.detail (List.hd recents))

(* Differential check of the growable ring against the fixed-array ring it
   replaced: the reference allocates all [capacity] slots up front and
   wraps modulo that size. Push counts sit on the growth and wrap
   boundaries. *)
module Ref_ring = struct
  type t = { ring : Trace.event option array; mutable next : int; mutable total : int }

  let create capacity = { ring = Array.make (max 1 capacity) None; next = 0; total = 0 }

  let push r e =
    r.ring.(r.next) <- Some e;
    r.next <- (r.next + 1) mod Array.length r.ring;
    r.total <- r.total + 1

  let recent ?topic r n =
    let cap = Array.length r.ring in
    let matches e = match topic with None -> true | Some w -> String.equal (Trace.topic e) w in
    let rec go i collected acc =
      if collected >= n || i >= cap then List.rev acc
      else
        match r.ring.((r.next - 1 - i + (2 * cap)) mod cap) with
        | Some e when matches e -> go (i + 1) (collected + 1) (e :: acc)
        | Some _ -> go (i + 1) collected acc
        | None -> List.rev acc
    in
    go 0 0 []

  let all ?topic r = List.rev (recent ?topic r (Array.length r.ring))

  let to_jsonl r =
    let b = Buffer.create 256 in
    List.iter
      (fun e ->
        Grt_util.Json.to_buffer b (Trace.event_json e);
        Buffer.add_char b '\n')
      (all r);
    Buffer.contents b
end

let gen_ring_case =
  let open QCheck2.Gen in
  let* cap = oneofl [ 1; 4; 4096 ] in
  let* pushes = oneofl [ 0; 1; cap - 1; cap; cap + 1; 3 * cap ] in
  let* salt = int_bound 1_000 in
  return (cap, pushes, salt)

let trace_ring_matches_fixed_array =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"growable ring == fixed-array ring"
       ~print:(fun (cap, pushes, salt) -> Printf.sprintf "cap=%d pushes=%d salt=%d" cap pushes salt)
       gen_ring_case
       (fun (cap, pushes, salt) ->
         let c = Clock.create () in
         let t = Trace.create ~capacity:cap c in
         let r = Ref_ring.create cap in
         let rng = Random.State.make [| salt |] in
         for i = 1 to pushes do
           Clock.advance_ns c (Int64.of_int (1 + Random.State.int rng 5));
           let payload =
             match Random.State.int rng 3 with
             | 0 -> Trace.Window_stall { inflight = i }
             | 1 -> Trace.Commit { site = "s"; accesses = i }
             | _ -> Trace.Rearm { label = "k"; client = i }
           in
           Trace.event t payload;
           Ref_ring.push r { Trace.at_ns = Clock.now_ns c; payload }
         done;
         let ns = [ 0; 1; cap - 1; cap; cap + 1; pushes; 3 * cap + 7 ] in
         let topics = [ None; Some "link"; Some "service"; Some "absent" ] in
         List.for_all
           (fun topic ->
             Trace.all ?topic t = Ref_ring.all ?topic r
             && List.for_all (fun n -> Trace.recent ?topic t n = Ref_ring.recent ?topic r n) ns)
           topics
         && Trace.count t = r.Ref_ring.total
         && Trace.retained t = min r.Ref_ring.total (Array.length r.Ref_ring.ring)
         && Trace.capacity t = Array.length r.Ref_ring.ring
         && String.equal (Trace.to_jsonl t) (Ref_ring.to_jsonl r)))

(* Once the ring has grown to full size, the recorder's per-commit writes
   only store ints and a site reference. *)
let trace_flat_writes_allocate_nothing () =
  let c = Clock.create () in
  let t = Trace.create ~capacity:64 c in
  let site = "kbase_job_submit@control#1" in
  for i = 1 to 100 do
    Trace.commit t ~site ~accesses:i
  done;
  let some_t = Some t in
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Clock.advance_int c 3;
    Trace.commit t ~site ~accesses:i;
    Trace.speculate t ~site ~checks:(i land 3);
    Trace.commit_opt some_t ~site ~accesses:i;
    Trace.speculate_opt None ~site ~checks:i
  done;
  check (Alcotest.float 0.) "minor words for 30k flat writes" 0. (Gc.minor_words () -. w0);
  check Alcotest.int "all counted" 30_100 (Trace.count t);
  match Trace.recent t 2 with
  | [ newest; older ] ->
    check Alcotest.string "newest rebuilt on read" "commit site=kbase_job_submit@control#1 accesses=10000"
      (Trace.detail newest);
    check Alcotest.string "older rebuilt on read" "speculate site=kbase_job_submit@control#1 checks=0"
      (Trace.detail older);
    check Alcotest.int64 "timestamped" (Clock.now_ns c) newest.Trace.at_ns
  | _ -> Alcotest.fail "expected two events"

(* A list model of the ring: every event ever written, newest first; the
   ring must show the newest [capacity] of them. Writes mix the flat entry
   points with boxed payloads (a [Commit] written through [event] too), and
   the push counts run through growth and several wraps. *)
let gen_flat_mix =
  let open QCheck2.Gen in
  let* cap = oneofl [ 1; 3; 8; 9; 64 ] in
  let* pushes = int_bound (4 * cap + 20) in
  let* salt = int_bound 10_000 in
  return (cap, pushes, salt)

let trace_flat_mix_matches_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"flat and boxed events == list model"
       ~print:(fun (cap, pushes, salt) -> Printf.sprintf "cap=%d pushes=%d salt=%d" cap pushes salt)
       gen_flat_mix
       (fun (cap, pushes, salt) ->
         let c = Clock.create () in
         let t = Trace.create ~capacity:cap c in
         let rng = Random.State.make [| salt |] in
         let sites = [| "a@control#1"; "poll:GPU_IRQ_RAWSTAT:100:set"; "<cold>@sync#2" |] in
         let model = ref [] in
         for i = 1 to pushes do
           Clock.advance_ns c (Int64.of_int (Random.State.int rng 4));
           let site = sites.(Random.State.int rng 3) in
           let payload =
             match Random.State.int rng 7 with
             | 0 ->
               Trace.commit t ~site ~accesses:i;
               Trace.Commit { site; accesses = i }
             | 1 ->
               Trace.speculate t ~site ~checks:(i mod 5);
               Trace.Speculate { site; checks = i mod 5 }
             | 2 ->
               let p = Trace.Commit { site; accesses = -i } in
               Trace.event t p;
               p
             | 3 ->
               let p = Trace.Rollback { site; reg = "CMD"; predicted = 1L; actual = Int64.of_int i } in
               Trace.event t p;
               p
             | 4 ->
               let p = Trace.Window_stall { inflight = i } in
               Trace.event t p;
               p
             | 5 ->
               let p = Trace.Retransmit { op = "round_trip"; attempt = i; outage = i land 1 = 0 } in
               Trace.event t p;
               p
             | _ ->
               let p = Trace.Evict { label = "k"; client = i; blob_bytes = 2 * i } in
               Trace.event t p;
               p
           in
           model := { Trace.at_ns = Clock.now_ns c; payload } :: !model
         done;
         let kept = List.filteri (fun i _ -> i < cap) !model in
         let recent ?topic n =
           let m = match topic with None -> kept | Some w -> List.filter (fun e -> Trace.topic e = w) kept in
           List.filteri (fun i _ -> i < n) m
         in
         let topics =
           List.fold_left
             (fun acc e -> if List.mem (Trace.topic e) acc then acc else acc @ [ Trace.topic e ])
             [] (List.rev kept)
         in
         let jsonl =
           String.concat ""
             (List.map (fun e -> Grt_util.Json.to_string (Trace.event_json e) ^ "\n") (List.rev kept))
         in
         let pp es = List.map (Format.asprintf "%a" Trace.pp_event) es in
         List.for_all
           (fun topic ->
             Trace.all ?topic t = List.rev (recent ?topic cap)
             && pp (Trace.all ?topic t) = pp (List.rev (recent ?topic cap))
             && List.for_all
                  (fun n -> Trace.recent ?topic t n = recent ?topic n)
                  [ 0; 1; 2; cap - 1; cap; cap + 1 ])
           [ None; Some "shim"; Some "link"; Some "service"; Some "absent" ]
         && Trace.topics t = topics
         && Trace.count t = pushes
         && Trace.retained t = List.length kept
         && String.equal (Trace.to_jsonl t) jsonl))

(* ---- Costs ---- *)

let costs_sane () =
  (* The entire delay model rests on MMIO being orders of magnitude cheaper
     than a WiFi RTT; guard that relationship. *)
  check Alcotest.bool "mmio << 1ms" true (Int64.compare Costs.mmio_access_ns 1_000_000L < 0);
  check Alcotest.bool "jit is macroscopic" true
    (Int64.compare Costs.jit_compile_ns_per_kernel 1_000_000L > 0);
  check Alcotest.bool "replayer step < driver submit" true
    (Int64.compare Costs.replayer_step_ns Costs.driver_submit_overhead_ns < 0);
  check Alcotest.bool "gpu throughput positive" true (Costs.gpu_flops_per_s > 1e9)

let () =
  Alcotest.run "grt_sim"
    [
      ( "clock",
        [
          Alcotest.test_case "starts at zero" `Quick clock_starts_at_zero;
          Alcotest.test_case "advances" `Quick clock_advances;
          Alcotest.test_case "rejects negative" `Quick clock_rejects_negative;
          Alcotest.test_case "advance_to" `Quick clock_advance_to;
          Alcotest.test_case "advance allocates nothing" `Quick clock_advance_allocates_nothing;
          Alcotest.test_case "time span" `Quick clock_time_span;
        ] );
      ( "counters",
        [
          Alcotest.test_case "basic" `Quick counters_basic;
          Alcotest.test_case "alist sorted" `Quick counters_alist_sorted;
          Alcotest.test_case "merge" `Quick counters_merge;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "name roundtrip" `Quick metrics_names_roundtrip;
          Alcotest.test_case "pp matches Counters.pp" `Quick metrics_pp_matches_counters;
          Alcotest.test_case "bump allocates nothing" `Quick metrics_bump_allocates_nothing;
          metrics_match_counters_model;
        ] );
      ( "energy",
        [
          Alcotest.test_case "base rail integrates" `Quick energy_base_rail_integrates;
          Alcotest.test_case "rail toggling" `Quick energy_rail_toggling;
          Alcotest.test_case "with_rail restores" `Quick energy_with_rail_restores;
          Alcotest.test_case "direct charge" `Quick energy_charge_j;
          Alcotest.test_case "reset" `Quick energy_reset;
          energy_matches_per_advance_model;
        ] );
      ( "trace",
        [
          Alcotest.test_case "recent order" `Quick trace_recent_order;
          Alcotest.test_case "topic filter" `Quick trace_topic_filter;
          Alcotest.test_case "ring eviction" `Quick trace_ring_eviction;
          trace_ring_matches_fixed_array;
          Alcotest.test_case "flat writes allocate nothing" `Quick trace_flat_writes_allocate_nothing;
          trace_flat_mix_matches_model;
        ] );
      ("costs", [ Alcotest.test_case "sane relationships" `Quick costs_sane ]);
    ]
