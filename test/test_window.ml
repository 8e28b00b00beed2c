(* Sliding-window link equivalence harness (the PR 3 tentpole's proof).

   The windowed transmission pipeline and the historical stop-and-wait ARQ
   draw fault outcomes from the same seeded RNG in the same order, so for
   any traffic and any fault spec they must agree on *what* happens —
   per-exchange success / [Link_down] attempt counts, retransmission counts,
   and ultimately the signed recording bytes — while being free to disagree
   on *when* (clock, energy, timing-side counters). The qcheck properties
   here check both halves: a link-level outcome equivalence over random
   traffic scripts × fault specs, and a recorder-level blob equivalence
   across modes. Deterministic cases pin the new behaviours: window stalls,
   go-back-N span accounting, drain-before-swap in [set_profile], the
   in-flight high-water metric, and the lossy-cellular speedup. *)

module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics
module Mode = Grt.Mode
module O = Grt.Orchestrate

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- link-level outcome equivalence ---- *)

(* A traffic script: the exchange mix the recorder actually produces
   (blocking commits, speculative async sends + completion waits, one-way
   pushes), with random sizes. *)
type op =
  | Rt of int * int
  | Async of int * int
  | Wait
  | Down_push of int
  | Up_push of int

let run_script ~window ~profile ~seed script =
  let clock = Clock.create () in
  let counters = Metrics.create () in
  let link = Link.create ~clock ~metrics:counters ~seed ~window profile in
  let pending = ref [] in
  List.map
    (fun op ->
      let before = Link.retransmits link in
      let outcome =
        try
          (match op with
          | Rt (s, r) -> Link.round_trip link ~send_bytes:s ~recv_bytes:r
          | Async (s, r) -> pending := Link.async_send link ~send_bytes:s ~recv_bytes:r :: !pending
          | Wait -> (
            match !pending with
            | [] -> ()
            | c :: rest ->
              Link.wait_until link c;
              pending := rest)
          | Down_push b -> Link.one_way_to_client link ~bytes:b
          | Up_push b -> Link.one_way_from_client link ~bytes:b);
          `Ok
        with Link.Link_down { attempts; _ } -> `Down attempts
      in
      (outcome, Link.retransmits link - before))
    script

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun s r -> Rt (s, r)) (int_range 16 4096) (int_range 16 4096);
        map2 (fun s r -> Async (s, r)) (int_range 16 4096) (int_range 16 4096);
        return Wait;
        map (fun b -> Down_push b) (int_range 16 65536);
        map (fun b -> Up_push b) (int_range 16 65536);
      ])

let gen_fault_spec =
  (* Up to heavy loss: [Link_down] outcomes are part of the equivalence. *)
  QCheck2.Gen.(
    quad (float_bound_inclusive 0.4) (float_bound_inclusive 0.3) (float_bound_inclusive 0.2)
      (float_bound_inclusive 0.05))

let gen_case =
  QCheck2.Gen.(
    quad (oneofl [ Profile.wifi; Profile.cellular ]) gen_fault_spec
      (map Int64.of_int int)
      (list_size (int_range 1 60) gen_op))

let window_outcome_equivalence =
  qtest ~count:320 "windowed ARQ outcome-equivalent to stop-and-wait"
    gen_case
    (fun (base, (drop, dup, corrupt, jitter), seed, script) ->
      let profile =
        Profile.degrade ~drop_prob:drop ~dup_prob:dup ~corrupt_prob:corrupt ~jitter_s:jitter base
      in
      let reference = run_script ~window:1 ~profile ~seed script in
      List.for_all
        (fun window -> run_script ~window ~profile ~seed script = reference)
        [ 2; 4; 8 ])

(* ---- recorder-level blob equivalence ---- *)

let record ~mode ~window ~max_inflight ~drop seed =
  let profile =
    if drop > 0. then Profile.degrade ~drop_prob:drop Profile.wifi else Profile.wifi
  in
  let config = { (Mode.default_config mode) with Mode.max_inflight } in
  O.record
    ~history:(Grt.Drivershim.fresh_history ())
    ~config ~window ~profile ~mode ~sku:Grt_gpu.Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed ()

let window_recording_equivalence =
  qtest ~count:8 "pipelined recordings bit-identical across modes"
    QCheck2.Gen.(pair (map Int64.of_int int) (float_bound_inclusive 0.08))
    (fun (seed, drop) ->
      List.for_all
        (fun mode ->
          let reference = record ~mode ~window:1 ~max_inflight:0 ~drop seed in
          let windowed = record ~mode ~window:4 ~max_inflight:4 ~drop seed in
          Bytes.equal reference.O.blob windowed.O.blob
          && Array.length reference.O.recording.Grt.Recording.entries
             = Array.length windowed.O.recording.Grt.Recording.entries)
        [ Mode.Ours_m; Mode.Ours_md; Mode.Ours_mds ])

(* ---- deterministic window behaviours ---- *)

let make_link ?(window = 1) ?(seed = 11L) profile =
  let clock = Clock.create () in
  let counters = Metrics.create () in
  (Link.create ~clock ~metrics:counters ~seed ~window profile, clock, counters)

let window_validates () =
  let clock = Clock.create () in
  Alcotest.check_raises "window 0 rejected"
    (Invalid_argument "Link.create: window must be >= 1") (fun () ->
      ignore (Link.create ~clock ~window:0 Profile.wifi));
  let link, _, _ = make_link ~window:3 Profile.wifi in
  check Alcotest.int "window accessor" 3 (Link.window link);
  let legacy, _, _ = make_link Profile.wifi in
  check Alcotest.int "default window" 1 (Link.window legacy)

let window_stalls_when_full () =
  let link, clock, counters = make_link ~window:2 Profile.wifi in
  let _ = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
  (* Bigger second send: a strictly later completion, so the stall below
     retires only the oldest entry. *)
  let _ = Link.async_send link ~send_bytes:65536 ~recv_bytes:64 in
  check Alcotest.int "pipe holds both" 2 (Link.inflight link);
  check Alcotest.int64 "no stall yet, clock untouched" 0L (Clock.now_ns clock);
  let _ = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
  check Alcotest.bool "third send stalled for a slot" true (Clock.now_ns clock > 0L);
  check Alcotest.int "stall counted" 1 (Metrics.get_int counters Metrics.Net_window_stalls);
  check Alcotest.int "oldest retired, new entry queued" 2 (Link.inflight link)

let window_one_never_stalls () =
  let link, clock, counters = make_link Profile.wifi in
  for _ = 1 to 20 do
    ignore (Link.async_send link ~send_bytes:64 ~recv_bytes:64)
  done;
  check Alcotest.int64 "legacy async never blocks" 0L (Clock.now_ns clock);
  check Alcotest.int "no window stalls" 0 (Metrics.get_int counters Metrics.Net_window_stalls);
  check Alcotest.int "no pipe" 0 (Link.inflight link)

let gbn_span_recharged () =
  (* With in-flight sends behind it, a retransmission resends the whole
     unacked span: the gbn counter moves and the span's bytes are
     re-charged. *)
  let link, _, counters =
    make_link ~window:4 ~seed:11L (Profile.degrade ~drop_prob:0.3 Profile.wifi)
  in
  for _ = 1 to 40 do
    try ignore (Link.async_send link ~send_bytes:256 ~recv_bytes:64)
    with Link.Link_down _ -> ()
  done;
  check Alcotest.bool "retransmits happened" true (Link.retransmits link > 0);
  check Alcotest.bool "go-back-N spans counted" true
    (Metrics.get_int counters Metrics.Net_gbn_retransmits > 0);
  (* Same traffic, same seed, stop-and-wait: identical retransmit count
     (same draws), no spans. *)
  let sw, _, sw_counters =
    make_link ~seed:11L (Profile.degrade ~drop_prob:0.3 Profile.wifi)
  in
  for _ = 1 to 40 do
    try ignore (Link.async_send sw ~send_bytes:256 ~recv_bytes:64)
    with Link.Link_down _ -> ()
  done;
  check Alcotest.int "same retransmit count as stop-and-wait" (Link.retransmits sw)
    (Link.retransmits link);
  check Alcotest.int "stop-and-wait has no spans" 0
    (Metrics.get_int sw_counters Metrics.Net_gbn_retransmits);
  check Alcotest.bool "span bytes re-charged" true
    (Metrics.get sw_counters Metrics.Net_bytes_tx < Metrics.get counters Metrics.Net_bytes_tx)

let gbn_detects_faster_than_rto () =
  (* Pure blocking traffic on a lossy cellular channel: identical outcomes,
     but go-back-N detection beats the backed-off RTO ladder on the clock. *)
  let lossy = Profile.degrade ~drop_prob:0.1 Profile.cellular in
  let run window =
    let link, clock, _ = make_link ~window ~seed:21L lossy in
    for _ = 1 to 200 do
      try Link.round_trip link ~send_bytes:256 ~recv_bytes:256 with Link.Link_down _ -> ()
    done;
    (Clock.now_s clock, Link.retransmits link)
  in
  let sw_s, sw_retx = run 1 in
  let w_s, w_retx = run 8 in
  check Alcotest.int "same retransmits" sw_retx w_retx;
  check Alcotest.bool "retransmits happened" true (sw_retx > 0);
  check Alcotest.bool "windowed loss detection is faster" true (w_s < sw_s)

let set_profile_drains_pipe () =
  (* Satellite fix: a mid-session profile swap must not let sends priced
     under the old profile complete against the new one — the pipe drains
     (clock advances to the last outstanding completion) before the swap. *)
  let link, clock, _ = make_link ~window:4 Profile.cellular in
  let _ = Link.async_send link ~send_bytes:4096 ~recv_bytes:64 in
  let last = Link.async_send link ~send_bytes:4096 ~recv_bytes:64 in
  check Alcotest.int "two in flight" 2 (Link.inflight link);
  Link.set_profile link Profile.lan;
  check Alcotest.int "pipe drained" 0 (Link.inflight link);
  check Alcotest.int64 "clock at last old-profile completion" last (Clock.now_ns clock);
  check Alcotest.bool "profile swapped" true (Link.profile link == Profile.lan);
  (* Window=1 keeps the historical no-op swap: no pipe, clock untouched. *)
  let legacy, legacy_clock, _ = make_link Profile.cellular in
  ignore (Link.async_send legacy ~send_bytes:4096 ~recv_bytes:64);
  Link.set_profile legacy Profile.lan;
  check Alcotest.int64 "legacy swap leaves clock alone" 0L (Clock.now_ns legacy_clock)

let set_profile_keeps_health_ring () =
  let lossy = Profile.degrade ~drop_prob:0.45 Profile.wifi in
  let link, _, _ = make_link ~window:4 ~seed:7L lossy in
  for _ = 1 to 64 do
    try Link.round_trip link ~send_bytes:64 ~recv_bytes:64 with Link.Link_down _ -> ()
  done;
  check Alcotest.bool "tripped degraded" true (Link.health link = Link.Degraded);
  Link.set_profile link Profile.wifi;
  (* The ring carries over: still degraded right after the swap, recovery
     only through fresh clean transfers. *)
  check Alcotest.bool "health survives the swap" true (Link.health link = Link.Degraded)

(* ---- pipelined recording behaviours ---- *)

let pipelined_recording_faster_on_lossy_cellular () =
  (* The bench acceptance bar, pinned as a test: windowed + pipelined
     recording beats stop-and-wait on a lossy cellular channel. *)
  let profile = Profile.degrade ~drop_prob:0.1 Profile.cellular in
  let run ~window ~max_inflight =
    let config = { (Mode.default_config Mode.Ours_mds) with Mode.max_inflight } in
    O.record
      ~history:(Grt.Drivershim.fresh_history ())
      ~config ~window ~profile ~mode:Mode.Ours_mds ~sku:Grt_gpu.Sku.g71_mp8
      ~net:Grt_mlfw.Zoo.mnist ~seed:42L ()
  in
  let sw = run ~window:1 ~max_inflight:0 in
  let windowed = run ~window:8 ~max_inflight:8 in
  check Alcotest.bool "windowed recording is faster" true (windowed.O.total_s < sw.O.total_s);
  check Alcotest.bytes "same signed blob" sw.O.blob windowed.O.blob

let inflight_high_water_tracked_when_pipelined () =
  let windowed = record ~mode:Mode.Ours_mds ~window:4 ~max_inflight:4 ~drop:0. 42L in
  let hw = Metrics.get_int windowed.O.counters Metrics.Spec_inflight_hw in
  check Alcotest.bool "high-water positive" true (hw > 0);
  check Alcotest.bool "high-water bounded by the cap" true (hw <= 4);
  (* Untracked on the default path, so default counter dumps stay
     byte-identical to the pre-window recorder. *)
  let default_run = record ~mode:Mode.Ours_mds ~window:1 ~max_inflight:0 ~drop:0. 42L in
  check Alcotest.int "not tracked by default" 0
    (Metrics.get_int default_run.O.counters Metrics.Spec_inflight_hw)

let window_one_counter_output_identical () =
  (* "window=1 runs byte-identical to pre-PR recordings AND counter output":
     within this process, an explicit ~window:1 run must reproduce the
     default run's blob and its full counter dump, byte for byte. *)
  let a =
    O.record ~history:(Grt.Drivershim.fresh_history ()) ~profile:Profile.wifi ~mode:Mode.Ours_mds
      ~sku:Grt_gpu.Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed:42L ()
  in
  let b =
    O.record ~history:(Grt.Drivershim.fresh_history ()) ~window:1 ~profile:Profile.wifi
      ~mode:Mode.Ours_mds ~sku:Grt_gpu.Sku.g71_mp8 ~net:Grt_mlfw.Zoo.mnist ~seed:42L ()
  in
  check Alcotest.bytes "same blob" a.O.blob b.O.blob;
  let dump o = Format.asprintf "%a" Metrics.pp o.O.counters in
  check Alcotest.string "same counter dump" (dump a) (dump b)

let () =
  Alcotest.run "grt_window"
    [
      ( "equivalence",
        [
          window_outcome_equivalence;
          window_recording_equivalence;
        ] );
      ( "window",
        [
          Alcotest.test_case "window validates" `Quick window_validates;
          Alcotest.test_case "stalls when full" `Quick window_stalls_when_full;
          Alcotest.test_case "window=1 never stalls" `Quick window_one_never_stalls;
          Alcotest.test_case "go-back-N span accounting" `Quick gbn_span_recharged;
          Alcotest.test_case "go-back-N detects faster than RTO" `Quick
            gbn_detects_faster_than_rto;
          Alcotest.test_case "set_profile drains the pipe" `Quick set_profile_drains_pipe;
          Alcotest.test_case "set_profile keeps the health ring" `Quick
            set_profile_keeps_health_ring;
        ] );
      ( "pipelined-recording",
        [
          Alcotest.test_case "faster on lossy cellular" `Quick
            pipelined_recording_faster_on_lossy_cellular;
          Alcotest.test_case "in-flight high-water metric" `Quick
            inflight_high_water_tracked_when_pipelined;
          Alcotest.test_case "window=1 counter output identical" `Quick
            window_one_counter_output_identical;
        ] );
    ]
