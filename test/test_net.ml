(* Tests for the network model: profile math, link cost accounting
   (blocking round trips, async sends, stall waits, one-ways) and message
   framing. *)

module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Frame = Grt_net.Frame
module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics

let check = Alcotest.check

let feq = Alcotest.float 1e-9

(* ---- Profile ---- *)

let profile_presets () =
  check feq "wifi rtt" 0.020 Profile.wifi.Profile.rtt_s;
  check feq "wifi bw" 80.0e6 Profile.wifi.Profile.bandwidth_bps;
  check feq "cellular rtt" 0.050 Profile.cellular.Profile.rtt_s;
  check feq "cellular bw" 40.0e6 Profile.cellular.Profile.bandwidth_bps

let profile_one_way_math () =
  let p = Profile.custom ~name:"t" ~rtt_ms:10.0 ~bandwidth_mbps:8.0 in
  (* half RTT (5 ms) + 1000 bytes at 8 Mbps (1 ms) + per-message. *)
  check feq "one way" (0.005 +. 0.001 +. p.Profile.per_message_s) (Profile.one_way_s p 1000)

let profile_round_trip_math () =
  let p = Profile.wifi in
  check feq "rt = both ways"
    (Profile.one_way_s p 100 +. Profile.one_way_s p 200)
    (Profile.round_trip_s p ~send_bytes:100 ~recv_bytes:200)

let profile_custom_validation () =
  Alcotest.check_raises "bad bw" (Invalid_argument "Profile.custom") (fun () ->
      ignore (Profile.custom ~name:"x" ~rtt_ms:1.0 ~bandwidth_mbps:0.0))

let profile_ordering () =
  (* Cellular must be strictly slower than WiFi for any message size —
     Figure 7b sits above Figure 7a because of this. *)
  List.iter
    (fun bytes ->
      check Alcotest.bool "cellular slower" true
        (Profile.one_way_s Profile.cellular bytes > Profile.one_way_s Profile.wifi bytes))
    [ 0; 100; 10_000; 1_000_000 ]

(* ---- Link ---- *)

let make_link profile =
  let clock = Clock.create () in
  let counters = Metrics.create () in
  (Link.create ~clock ~metrics:counters profile, clock, counters)

let link_round_trip_blocks () =
  let link, clock, counters = make_link Profile.wifi in
  Link.round_trip link ~send_bytes:100 ~recv_bytes:100;
  check Alcotest.bool "clock advanced by ~rtt" true (Clock.now_s clock >= 0.020);
  check Alcotest.int "one blocking rtt" 1 (Metrics.get_int counters Metrics.Net_blocking_rtts);
  check Alcotest.int64 "tx counted" 100L (Metrics.get counters Metrics.Net_bytes_tx);
  check Alcotest.int64 "rx counted" 100L (Metrics.get counters Metrics.Net_bytes_rx)

let link_async_does_not_block () =
  let link, clock, counters = make_link Profile.wifi in
  let completion = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
  check Alcotest.int64 "clock unchanged" 0L (Clock.now_ns clock);
  check Alcotest.int "no blocking rtt" 0 (Metrics.get_int counters Metrics.Net_blocking_rtts);
  check Alcotest.bool "completion in future" true (Int64.compare completion 0L > 0)

let link_wait_until_counts_only_real_waits () =
  let link, clock, counters = make_link Profile.wifi in
  let completion = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
  Link.wait_until link completion;
  check Alcotest.int "stalled once" 1 (Metrics.get_int counters Metrics.Net_stall_waits);
  (* A stall is not a blocking round trip: the RTT was already charged by
     async_send's completion time. Counting both would double-report. *)
  check Alcotest.int "no blocking rtt for a stall" 0
    (Metrics.get_int counters Metrics.Net_blocking_rtts);
  check Alcotest.int64 "clock at completion" completion (Clock.now_ns clock);
  (* Second wait on the same (past) deadline is free. *)
  Link.wait_until link completion;
  check Alcotest.int "no extra stall" 1 (Metrics.get_int counters Metrics.Net_stall_waits);
  check Alcotest.int "still no blocking rtt" 0 (Metrics.get_int counters Metrics.Net_blocking_rtts)

let link_accessors_match_counters () =
  let link, _, counters = make_link Profile.wifi in
  Link.round_trip link ~send_bytes:10 ~recv_bytes:10;
  Link.round_trip link ~send_bytes:10 ~recv_bytes:10;
  Link.wait_until link (Link.async_send link ~send_bytes:10 ~recv_bytes:10);
  check Alcotest.int "blocking_rtts" (Metrics.get_int counters Metrics.Net_blocking_rtts)
    (Link.blocking_rtts link);
  check Alcotest.int "blocking_rtts value" 2 (Link.blocking_rtts link);
  check Alcotest.int "stall_waits" 1 (Link.stall_waits link);
  check Alcotest.int "retransmits (clean link)" 0 (Link.retransmits link)

let link_one_ways () =
  let link, clock, counters = make_link Profile.wifi in
  Link.one_way_to_client link ~bytes:1000;
  let after_down = Clock.now_s clock in
  check Alcotest.bool "half rtt-ish" true (after_down >= 0.010);
  Link.one_way_from_client link ~bytes:500;
  check Alcotest.int64 "down counted as tx" 1000L (Metrics.get counters Metrics.Net_bytes_tx);
  check Alcotest.int64 "up counted as rx" 500L (Metrics.get counters Metrics.Net_bytes_rx)

let link_async_fifo_order () =
  let link, _, _ = make_link Profile.wifi in
  let c1 = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
  let c2 = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
  check Alcotest.bool "later send completes no earlier" true (Int64.compare c2 c1 >= 0)

let link_bandwidth_matters () =
  let link_fast, clock_fast, _ = make_link Profile.lan in
  let link_slow, clock_slow, _ = make_link Profile.cellular in
  Link.round_trip link_fast ~send_bytes:1_000_000 ~recv_bytes:0;
  Link.round_trip link_slow ~send_bytes:1_000_000 ~recv_bytes:0;
  check Alcotest.bool "lan much faster" true (Clock.now_s clock_fast *. 5. < Clock.now_s clock_slow)

(* ---- faulty links ---- *)

let make_lossy ?(seed = 11L) ?(drop = 0.3) ?dup ?corrupt ?jitter profile =
  let p = Profile.degrade ?dup_prob:dup ?corrupt_prob:corrupt ?jitter_s:jitter ~drop_prob:drop profile in
  let clock = Clock.create () in
  let counters = Metrics.create () in
  (Link.create ~clock ~metrics:counters ~seed p, clock, counters)

let drive link n =
  for _ = 1 to n do
    try Link.round_trip link ~send_bytes:64 ~recv_bytes:64 with Link.Link_down _ -> ()
  done

let link_lossy_retransmits () =
  let link, clock, counters = make_lossy Profile.wifi in
  let clean, clean_clock, _ = make_link Profile.wifi in
  for _ = 1 to 50 do
    Link.round_trip clean ~send_bytes:64 ~recv_bytes:64
  done;
  drive link 50;
  check Alcotest.bool "retransmits happened" true (Link.retransmits link > 0);
  check Alcotest.bool "drops counted" true (Metrics.get_int counters Metrics.Net_drops > 0);
  check Alcotest.bool "loss costs time" true (Clock.now_s clock > Clock.now_s clean_clock)

let link_lossy_deterministic () =
  let run () =
    let link, clock, _ = make_lossy ~seed:99L Profile.wifi in
    drive link 40;
    (Clock.now_ns clock, Link.retransmits link)
  in
  let t1, r1 = run () and t2, r2 = run () in
  check Alcotest.int64 "same virtual time" t1 t2;
  check Alcotest.int "same retransmit count" r1 r2

let link_corruption_counted_separately () =
  let link, _, counters = make_lossy ~drop:0.0 ~corrupt:0.4 Profile.wifi in
  drive link 50;
  check Alcotest.bool "corrupt drops counted" true
    (Metrics.get_int counters Metrics.Net_corrupt_drops > 0);
  check Alcotest.int "no plain drops" 0 (Metrics.get_int counters Metrics.Net_drops)

let link_dups_cost_nothing_but_counted () =
  let link, clock, counters = make_lossy ~drop:0.0 ~dup:0.5 Profile.wifi in
  let clean, clean_clock, _ = make_link Profile.wifi in
  drive link 30;
  for _ = 1 to 30 do
    Link.round_trip clean ~send_bytes:64 ~recv_bytes:64
  done;
  check Alcotest.bool "dups counted" true (Metrics.get_int counters Metrics.Net_dups > 0);
  check Alcotest.int "no retransmits from dups" 0 (Link.retransmits link);
  (* Duplicates are discarded by sequence number; they add no latency. *)
  check (Alcotest.float 1e-9) "same virtual time" (Clock.now_s clean_clock) (Clock.now_s clock)

let link_outage_raises_link_down () =
  let link, clock, counters = make_link Profile.wifi in
  Link.inject_outage_after link 1;
  Link.round_trip link ~send_bytes:64 ~recv_bytes:64 (* survives: countdown at 1 *);
  let before = Clock.now_s clock in
  (match Link.round_trip link ~send_bytes:64 ~recv_bytes:64 with
  | () -> Alcotest.fail "outage did not raise"
  | exception Link.Link_down { attempts; op } ->
    check Alcotest.int "gave up after max attempts" Grt_sim.Costs.link_max_attempts attempts;
    check Alcotest.string "op" "round_trip" op);
  check Alcotest.bool "timeouts charged to the clock" true (Clock.now_s clock > before);
  check Alcotest.int "link_down counted" 1 (Metrics.get_int counters Metrics.Net_link_downs);
  check Alcotest.bool "retransmit attempts counted" true (Link.retransmits link > 0)

let link_heavy_loss_eventually_down () =
  let link, _, _ = make_lossy ~seed:3L ~drop:0.9 Profile.wifi in
  let downs = ref 0 in
  for _ = 1 to 30 do
    try Link.round_trip link ~send_bytes:64 ~recv_bytes:64
    with Link.Link_down _ -> incr downs
  done;
  check Alcotest.bool "random loss can exhaust the ARQ" true (!downs > 0)

let link_degraded_state_machine () =
  let link, _, counters = make_lossy ~seed:7L ~drop:0.4 Profile.wifi in
  check Alcotest.bool "starts healthy" true (Link.health link = Link.Healthy);
  drive link 64;
  check Alcotest.bool "tripped degraded" true (Link.health link = Link.Degraded);
  check Alcotest.bool "entry counted" true (Metrics.get_int counters Metrics.Net_degraded_entries >= 1);
  (* The channel clears up: hysteresis exits after a quiet stretch. *)
  Link.set_profile link Profile.wifi;
  drive link 128;
  check Alcotest.bool "recovered" true (Link.health link = Link.Healthy);
  check Alcotest.bool "exit counted" true (Metrics.get_int counters Metrics.Net_degraded_exits >= 1)

let link_jitter_keeps_fifo () =
  let link, _, _ = make_lossy ~seed:5L ~drop:0.2 ~jitter:0.080 Profile.wifi in
  let prev = ref 0L in
  for _ = 1 to 40 do
    let c = Link.async_send link ~send_bytes:64 ~recv_bytes:64 in
    check Alcotest.bool "monotonic completion" true (Int64.compare c !prev >= 0);
    prev := c
  done

let profile_degrade_renames () =
  let p = Profile.degrade ~drop_prob:0.05 Profile.wifi in
  check Alcotest.bool "renamed" true (p.Profile.name <> Profile.wifi.Profile.name);
  check Alcotest.bool "has faults" true (Profile.has_faults p);
  check Alcotest.bool "presets clean" false (Profile.has_faults Profile.wifi);
  Alcotest.check_raises "bad prob" (Invalid_argument "Profile.degrade") (fun () ->
      ignore (Profile.degrade ~drop_prob:1.5 Profile.wifi))

(* ---- Frame ---- *)

let frame_roundtrip () =
  let payload = Bytes.of_string "commit #42" in
  let framed = Frame.seal Frame.Commit_request payload in
  match Frame.open_ framed with
  | Ok (Frame.Commit_request, p) -> check Alcotest.bytes "payload" payload p
  | Ok _ -> Alcotest.fail "wrong kind"
  | Error e -> Alcotest.fail e

let frame_all_kinds () =
  List.iter
    (fun k ->
      match Frame.kind_of_int (Frame.kind_to_int k) with
      | Some k' when k = k' -> ()
      | _ -> Alcotest.fail "kind roundtrip failed")
    [
      Frame.Commit_request;
      Frame.Commit_response;
      Frame.Poll_offload;
      Frame.Poll_result;
      Frame.Mem_sync;
      Frame.Mem_sync_ack;
      Frame.Irq_notify;
      Frame.Recording_download;
      Frame.Control;
      Frame.Ack;
      Frame.Nak;
    ]

let frame_seq_roundtrip () =
  let payload = Bytes.of_string "seq'd" in
  let framed = Frame.seal ~seq:123456 Frame.Poll_result payload in
  match Frame.open_full framed with
  | Ok m ->
    check Alcotest.bool "kind" true (m.Frame.kind = Frame.Poll_result);
    check Alcotest.int "seq" 123456 m.Frame.seq;
    check Alcotest.bytes "payload" payload m.Frame.payload
  | Error e -> Alcotest.fail e

let frame_default_seq_zero () =
  match Frame.open_full (Frame.seal Frame.Control Bytes.empty) with
  | Ok m -> check Alcotest.int "seq defaults to 0" 0 m.Frame.seq
  | Error e -> Alcotest.fail e

let frame_ack () =
  match Frame.open_full (Frame.ack ~seq:77) with
  | Ok { Frame.kind = Frame.Ack; seq = 77; payload } ->
    check Alcotest.int "empty payload" 0 (Bytes.length payload)
  | Ok _ -> Alcotest.fail "wrong kind or seq"
  | Error e -> Alcotest.fail e

let frame_corrupt_seq_detected () =
  (* The CRC must cover the header, not just the payload: a damaged
     sequence number would otherwise ack the wrong exchange. *)
  let framed = Frame.seal ~seq:1 Frame.Control (Bytes.of_string "abc") in
  let c = Bytes.copy framed in
  (* seq lives in bytes 5-8, after magic (4) and kind (1) *)
  Bytes.set c 6 (Char.chr (Char.code (Bytes.get c 6) lxor 0x10));
  match Frame.open_full c with
  | Error _ -> ()
  | Ok m ->
    Alcotest.fail (Printf.sprintf "corrupted seq accepted (seq now %d)" m.Frame.seq)

let frame_detects_corruption () =
  let framed = Frame.seal Frame.Mem_sync (Bytes.of_string "page data here") in
  let corrupted = Bytes.copy framed in
  let pos = Bytes.length framed - 6 in
  Bytes.set corrupted pos (Char.chr (Char.code (Bytes.get corrupted pos) lxor 0xFF));
  (match Frame.open_ corrupted with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corruption not detected");
  (* Also corrupt inside the payload. *)
  let corrupted2 = Bytes.copy framed in
  Bytes.set corrupted2 12 '!';
  match Frame.open_ corrupted2 with
  | Error _ -> ()
  | Ok (_, p) ->
    if not (Bytes.equal p (Bytes.of_string "page data here")) then ()
    else Alcotest.fail "payload corruption not detected"

let frame_bad_magic () =
  match Frame.open_ (Bytes.of_string "garbage frame data") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted garbage"

let frame_truncated () =
  let framed = Frame.seal Frame.Control (Bytes.of_string "x") in
  match Frame.open_ (Bytes.sub framed 0 (Bytes.length framed - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated frame"

let frame_overhead_accurate () =
  let framed = Frame.seal Frame.Control (Bytes.create 10) in
  check Alcotest.int "overhead constant" Frame.overhead_bytes (Bytes.length framed - 10)

(* Hostile frames: seeded from [seal] outputs, mutated by bit flips,
   truncation, an inflated length field, a random kind byte or appended
   bytes. [open_full] must answer without raising, allocate within a fixed
   multiple of the input, and accept only exactly what [seal] produces. *)
type frame_mutation = Intact | Flip of int * int | Truncate of int | Length of int | Kind of int | Append of string

let show_mutation = function
  | Intact -> "intact"
  | Flip (i, b) -> Printf.sprintf "flip byte %d bit %d" i b
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Length l -> Printf.sprintf "length field %d" l
  | Kind k -> Printf.sprintf "kind byte %d" k
  | Append s -> Printf.sprintf "append %d bytes" (String.length s)

let mutate frame = function
  | Intact -> frame
  | Flip (i, bit) ->
    let b = Bytes.copy frame in
    let i = i mod Bytes.length b in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    b
  | Truncate n -> Bytes.sub frame 0 (n mod Bytes.length frame)
  | Length l ->
    (* magic (4) ∥ kind (1) ∥ seq (4) ∥ length (4, little-endian) *)
    let b = Bytes.copy frame in
    Bytes.set_int32_le b 9 (Int32.of_int l);
    b
  | Kind k ->
    let b = Bytes.copy frame in
    Bytes.set b 4 (Char.chr k);
    b
  | Append s -> Bytes.cat frame (Bytes.of_string s)

let gen_hostile_frame =
  let open QCheck2.Gen in
  let kinds =
    Frame.
      [
        Commit_request; Commit_response; Poll_offload; Poll_result; Mem_sync; Mem_sync_ack;
        Irq_notify; Recording_download; Control; Ack; Nak;
      ]
  in
  let* kind = oneofl kinds in
  let* seq = int_bound 0x3FFFFFFF in
  let* payload = string_size (int_bound 96) in
  let* mutation =
    oneof
      [
        return Intact;
        map2 (fun i b -> Flip (i, b)) nat (int_bound 7);
        map (fun n -> Truncate n) nat;
        map (fun l -> Length l) (oneof [ int_bound 256; return 0xFFFFFFFF; int_bound 0x7FFFFFFF ]);
        map (fun k -> Kind k) (int_bound 255);
        map (fun s -> Append s) (string_size (int_range 1 16));
      ]
  in
  return (Frame.seal ~seq kind (Bytes.of_string payload), mutation)

let frame_open_full_hostile =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:2000 ~name:"open_full: typed result, bounded allocation, exact accepts"
       ~print:(fun (frame, m) -> Printf.sprintf "%d-byte frame, %s" (Bytes.length frame) (show_mutation m))
       gen_hostile_frame
       (fun (frame, m) ->
         let input = mutate frame m in
         let before = Gc.allocated_bytes () in
         let result =
           match Frame.open_full input with
           | r -> r
           | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)
         in
         let allocated = Gc.allocated_bytes () -. before in
         if allocated > 1024. +. (8. *. float_of_int (Bytes.length input)) then
           QCheck2.Test.fail_reportf "allocated %.0f bytes for a %d-byte input" allocated
             (Bytes.length input);
         match result with
         | Error _ -> m <> Intact
         | Ok msg -> Bytes.equal (Frame.seal ~seq:msg.Frame.seq msg.Frame.kind msg.Frame.payload) input))

let () =
  Alcotest.run "grt_net"
    [
      ( "profile",
        [
          Alcotest.test_case "presets" `Quick profile_presets;
          Alcotest.test_case "one-way math" `Quick profile_one_way_math;
          Alcotest.test_case "round-trip math" `Quick profile_round_trip_math;
          Alcotest.test_case "custom validation" `Quick profile_custom_validation;
          Alcotest.test_case "cellular slower than wifi" `Quick profile_ordering;
          Alcotest.test_case "degrade renames and validates" `Quick profile_degrade_renames;
        ] );
      ( "link",
        [
          Alcotest.test_case "round trip blocks" `Quick link_round_trip_blocks;
          Alcotest.test_case "async does not block" `Quick link_async_does_not_block;
          Alcotest.test_case "wait_until semantics" `Quick link_wait_until_counts_only_real_waits;
          Alcotest.test_case "one-way transfers" `Quick link_one_ways;
          Alcotest.test_case "async FIFO order" `Quick link_async_fifo_order;
          Alcotest.test_case "bandwidth matters" `Quick link_bandwidth_matters;
          Alcotest.test_case "accessors match counters" `Quick link_accessors_match_counters;
        ] );
      ( "faulty-link",
        [
          Alcotest.test_case "loss retransmits and costs time" `Quick link_lossy_retransmits;
          Alcotest.test_case "seeded loss is deterministic" `Quick link_lossy_deterministic;
          Alcotest.test_case "corruption counted separately" `Quick
            link_corruption_counted_separately;
          Alcotest.test_case "dups counted, free" `Quick link_dups_cost_nothing_but_counted;
          Alcotest.test_case "outage raises Link_down" `Quick link_outage_raises_link_down;
          Alcotest.test_case "heavy loss exhausts ARQ" `Quick link_heavy_loss_eventually_down;
          Alcotest.test_case "degraded-mode hysteresis" `Quick link_degraded_state_machine;
          Alcotest.test_case "jitter keeps FIFO order" `Quick link_jitter_keeps_fifo;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip" `Quick frame_roundtrip;
          Alcotest.test_case "all kinds" `Quick frame_all_kinds;
          Alcotest.test_case "detects corruption" `Quick frame_detects_corruption;
          Alcotest.test_case "bad magic" `Quick frame_bad_magic;
          Alcotest.test_case "truncated" `Quick frame_truncated;
          Alcotest.test_case "overhead constant" `Quick frame_overhead_accurate;
          Alcotest.test_case "sequence number roundtrip" `Quick frame_seq_roundtrip;
          Alcotest.test_case "default seq is 0" `Quick frame_default_seq_zero;
          Alcotest.test_case "ack frame" `Quick frame_ack;
          Alcotest.test_case "corrupt seq detected" `Quick frame_corrupt_seq_detected;
          frame_open_full_hostile;
        ] );
    ]
