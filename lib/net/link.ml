module Costs = Grt_sim.Costs
module Metrics = Grt_sim.Metrics
module Trace = Grt_sim.Trace
module Tracer = Grt_sim.Tracer
module Hist = Grt_sim.Hist

type health = Healthy | Degraded

exception Link_down of { attempts : int; op : string }

(* Ring over recent exchanges used to detect a persistently lossy channel
   (degraded mode, hysteresis: trip high, clear low). Distinct from the
   transmission [window] below, which bounds exchanges in flight. *)
let health_ring_size = 64

let degraded_trip = 0.20
let degraded_clear = degraded_trip /. 4.

(* The windowed in-flight pipe is a ring of parallel int arrays sized
   [window]: byte costs (needed to re-charge the whole unacked span on a
   go-back-N retransmission) and the virtual time, in unboxed ns, at which
   each response lands. Completions are clamped monotonic by [deliver_at],
   so the ring is ordered oldest-first from [pipe_head]. Exchanges run on
   every simulated commit, so the pipe must not allocate per send. *)
type t = {
  mutable profile : Profile.t;
  clock : Grt_sim.Clock.t;
  energy : Grt_sim.Energy.t option;
  metrics : Metrics.t option;
  trace : Trace.t option;
  tracer : Tracer.t option;
  hists : Hist.set option;
  rng : Grt_util.Rng.t;
  window : int;
  pipe_send : int array; (* length [window]; unused when window = 1 *)
  pipe_recv : int array;
  pipe_done : int array; (* completion ns, oldest first from pipe_head *)
  mutable pipe_head : int;
  mutable pipe_count : int;
  mutable last_delivery : int; (* ns; 63 bits do not overflow *)
  health_ring : Bytes.t;
  mutable ring_fill : int;
  mutable ring_pos : int;
  mutable ring_sum : int;
  mutable health : health;
  mutable outage_countdown : int option;
}

let create ~clock ?energy ?metrics ?trace ?tracer ?hists ?(seed = 0x4C494E4BL) ?(window = 1)
    profile =
  if window < 1 then invalid_arg "Link.create: window must be >= 1";
  {
    profile;
    clock;
    energy;
    metrics;
    trace;
    tracer;
    hists;
    rng = Grt_util.Rng.create ~seed;
    window;
    pipe_send = Array.make window 0;
    pipe_recv = Array.make window 0;
    pipe_done = Array.make window 0;
    pipe_head = 0;
    pipe_count = 0;
    last_delivery = 0;
    health_ring = Bytes.make health_ring_size '\000';
    ring_fill = 0;
    ring_pos = 0;
    ring_sum = 0;
    health = Healthy;
    outage_countdown = None;
  }

let profile t = t.profile
let window t = t.window
let clock t = t.clock
let health t = t.health
let inject_outage_after t n = t.outage_countdown <- Some n

let count t key v = match t.metrics with Some m -> Metrics.add m key v | None -> ()

let set_profile t p =
  (* Windowed sends still in flight were priced under the old profile; drain
     them before the swap so they cannot complete against the new profile's
     costs. The newest pipe entry has the latest completion (monotonic
     clamp), so one clock advance retires the whole span. The degraded-health
     ring deliberately carries over: channel history survives a handover. *)
  if t.pipe_count > 0 then begin
    Trace.event_opt t.trace (Trace.Profile_swap { draining = t.pipe_count });
    let newest = t.pipe_done.((t.pipe_head + t.pipe_count - 1) mod t.window) in
    Grt_sim.Clock.advance_to_int t.clock newest;
    t.pipe_head <- 0;
    t.pipe_count <- 0
  end;
  t.profile <- p

let charge_radio t ~tx_bytes ~rx_bytes =
  (* The client radio is active while bytes are on the air in either
     direction; energy is charged per transfer rather than via rails because
     async sends overlap with computation. *)
  match t.energy with
  | None -> ()
  | Some e ->
    let tx_s = float_of_int (8 * tx_bytes) /. t.profile.Profile.bandwidth_bps in
    let rx_s = float_of_int (8 * rx_bytes) /. t.profile.Profile.bandwidth_bps in
    (* Each message also keeps the radio awake for roughly the per-message
       overhead window. *)
    let awake = 2. *. t.profile.Profile.per_message_s in
    Grt_sim.Energy.charge_j e Grt_sim.Energy.Radio_tx
      ((tx_s +. awake) *. Grt_sim.Energy.rail_power_w Grt_sim.Energy.Radio_tx);
    Grt_sim.Energy.charge_j e Grt_sim.Energy.Radio_rx
      ((rx_s +. awake) *. Grt_sim.Energy.rail_power_w Grt_sim.Energy.Radio_rx)

let account t ~send_bytes ~recv_bytes =
  count t Metrics.Net_msgs 2;
  count t Metrics.Net_bytes_tx send_bytes;
  count t Metrics.Net_bytes_rx recv_bytes;
  charge_radio t ~tx_bytes:recv_bytes ~rx_bytes:send_bytes
(* Note: [send_bytes] is cloud->client, which the *client* receives; the
   client energy model therefore sees it as RX. *)

let note_transfer t ~retransmitted =
  let v = if retransmitted then 1 else 0 in
  if t.ring_fill = health_ring_size then
    t.ring_sum <- t.ring_sum - Char.code (Bytes.get t.health_ring t.ring_pos)
  else t.ring_fill <- t.ring_fill + 1;
  Bytes.set t.health_ring t.ring_pos (Char.chr v);
  t.ring_sum <- t.ring_sum + v;
  t.ring_pos <- (t.ring_pos + 1) mod health_ring_size;
  let rate = float_of_int t.ring_sum /. float_of_int (max 1 t.ring_fill) in
  match t.health with
  | Healthy when t.ring_fill >= health_ring_size / 2 && rate >= degraded_trip ->
    t.health <- Degraded;
    count t Metrics.Net_degraded_entries 1;
    Trace.event_opt t.trace (Trace.Degraded { rate })
  | Degraded when rate <= degraded_clear ->
    t.health <- Healthy;
    count t Metrics.Net_degraded_exits 1;
    Trace.event_opt t.trace (Trace.Healthy { rate })
  | _ -> ()

let rto t attempt =
  let base =
    Float.max Costs.link_rto_min_s (Costs.link_rto_rtt_multiplier *. t.profile.Profile.rtt_s)
  in
  Float.min Costs.link_rto_max_s (base *. (Costs.link_rto_backoff ** float_of_int (attempt - 1)))

(* Go-back-N loss detection. With a window the sender keeps frames (and their
   cumulative acks) flowing behind a loss, so the receiver spots the sequence
   hole as soon as the next frame lands and NAKs it ([Frame.Nak]): the sender
   learns of the loss after about one round trip plus a few per-message
   overheads, instead of sitting out a conservatively backed-off RTO.
   Stop-and-wait has no later traffic to reveal the gap and must rely on the
   timer. The RTO still caps the wait (min) so a dead link degrades
   identically, and late attempts still back off toward [Link_down]. *)
let gbn_detect t attempt =
  Float.min (rto t attempt)
    (Float.max Costs.link_rto_min_s
       (t.profile.Profile.rtt_s +. (4. *. t.profile.Profile.per_message_s)))

(* Both disciplines share the ARQ loop; the detection wait is the only
   difference, so the loop dispatches on the window size instead of taking
   the wait as a closure. *)
let detect t attempt = if t.window = 1 then rto t attempt else gbn_detect t attempt

let pipe_pop t =
  t.pipe_head <- (t.pipe_head + 1) mod t.window;
  t.pipe_count <- t.pipe_count - 1

let reap t =
  let now = Grt_sim.Clock.now_int t.clock in
  while t.pipe_count > 0 && t.pipe_done.(t.pipe_head) <= now do
    pipe_pop t
  done

(* Block until the transmission window has a free slot: advance the virtual
   clock to the oldest in-flight completion and retire it. Only meaningful
   when window > 1 (the pipe is never populated otherwise). *)
let rec stall_for_slot t =
  reap t;
  if t.pipe_count >= t.window then begin
    count t Metrics.Net_window_stalls 1;
    Trace.event_opt t.trace (Trace.Window_stall { inflight = t.pipe_count });
    Grt_sim.Clock.advance_to_int t.clock t.pipe_done.(t.pipe_head);
    pipe_pop t;
    stall_for_slot t
  end

(* Go-back-N: a retransmission resends the oldest unacked frame *and*
   everything sent after it. Re-charge bytes and radio energy for the whole
   unacked span and record the span length. *)
let resend_span t =
  if t.pipe_count > 0 then begin
    count t Metrics.Net_gbn_retransmits t.pipe_count;
    Hist.record_opt t.hists Hist.Gbn_span t.pipe_count;
    for i = 0 to t.pipe_count - 1 do
      let s = (t.pipe_head + i) mod t.window in
      account t ~send_bytes:t.pipe_send.(s) ~recv_bytes:t.pipe_recv.(s)
    done
  end

(* One leg of an exchange: lost, damaged (receiver drops it on CRC), or
   delivered. *)
let leg_outcome t =
  let f = t.profile.Profile.faults in
  if Grt_util.Rng.float t.rng 1.0 < f.Profile.drop_prob then `Dropped
  else if
    f.Profile.corrupt_prob > 0. && Grt_util.Rng.float t.rng 1.0 < f.Profile.corrupt_prob
  then `Corrupt
  else begin
    if f.Profile.dup_prob > 0. && Grt_util.Rng.float t.rng 1.0 < f.Profile.dup_prob then
      (* Duplicate delivery: the sequence number identifies it and the
         receiver discards it; only the counter records it happened. *)
      count t Metrics.Net_dups 1;
    `Ok
  end

(* What a retransmission re-charges. A variant rather than a callback so the
   ARQ loop costs no closure per exchange. *)
type charge = Charge_exchange | Charge_push_to_client | Charge_push_from_client

let charge_attempt t charge ~send_bytes ~recv_bytes =
  (match charge with
  | Charge_exchange -> account t ~send_bytes ~recv_bytes
  | Charge_push_to_client ->
    count t Metrics.Net_msgs 1;
    count t Metrics.Net_bytes_tx send_bytes;
    charge_radio t ~tx_bytes:0 ~rx_bytes:send_bytes
  | Charge_push_from_client ->
    count t Metrics.Net_msgs 1;
    count t Metrics.Net_bytes_rx recv_bytes;
    charge_radio t ~tx_bytes:recv_bytes ~rx_bytes:0);
  (* Go-back-N: the whole unacked span goes out again with the resent
     frame. A no-op under stop-and-wait (the pipe is empty). *)
  if t.window > 1 then resend_span t

let fail_down t ~op ~extra ~retransmitted =
  count t Metrics.Net_link_downs 1;
  Trace.event_opt t.trace
    (Trace.Link_down { op; attempts = Costs.link_max_attempts; extra_s = extra });
  Grt_sim.Clock.advance_s t.clock extra;
  note_transfer t ~retransmitted;
  raise (Link_down { attempts = Costs.link_max_attempts; op })

(* ARQ attempt loop shared by both transmission disciplines. Draws fault
   outcomes per leg; a lost or damaged leg fails the whole attempt, the
   sender waits [detect t attempt] seconds (stop-and-wait: the exponentially
   backed-off RTO; windowed: go-back-N NAK detection) and retransmits,
   re-charging the resent bytes and energy per [charge]. Returns the
   extra delay (detection waits + jitter) in seconds; the caller folds it
   into the exchange latency. Raises [Link_down] — after advancing the clock
   past the final timeout — once [Costs.link_max_attempts] attempts have
   failed. Both disciplines draw from the RNG in the same order, so exchange
   outcomes are window-invariant; only the charged delay differs. *)
let run_arq t ~op ~legs ~charge ~send_bytes ~recv_bytes =
  match t.outage_countdown with
  | Some 0 ->
    (* Deterministic hard outage: every attempt times out. *)
    t.outage_countdown <- None;
    let extra = ref 0. in
    for a = 1 to Costs.link_max_attempts do
      extra := !extra +. detect t a;
      if a > 1 then begin
        count t Metrics.Net_retransmits 1;
        Trace.event_opt t.trace (Trace.Retransmit { op; attempt = a; outage = true });
        charge_attempt t charge ~send_bytes ~recv_bytes
      end
    done;
    fail_down t ~op ~extra:!extra ~retransmitted:true
  | Some n ->
    t.outage_countdown <- Some (n - 1);
    note_transfer t ~retransmitted:false;
    0.
  | None ->
    if not (Profile.has_faults t.profile) then begin
      note_transfer t ~retransmitted:false;
      0.
    end
    else begin
      let f = t.profile.Profile.faults in
      let extra = ref 0. in
      let rec attempt a =
        if a > Costs.link_max_attempts then
          fail_down t ~op ~extra:!extra ~retransmitted:true;
        if a > 1 then begin
          count t Metrics.Net_retransmits 1;
          Trace.event_opt t.trace (Trace.Retransmit { op; attempt = a; outage = false });
          charge_attempt t charge ~send_bytes ~recv_bytes
        end;
        let ok = ref true in
        for _ = 1 to legs do
          if !ok then
            match leg_outcome t with
            | `Dropped ->
              count t Metrics.Net_drops 1;
              ok := false
            | `Corrupt ->
              count t Metrics.Net_corrupt_drops 1;
              ok := false
            | `Ok -> ()
        done;
        if !ok then begin
          if f.Profile.jitter_s > 0. then
            extra := !extra +. Grt_util.Rng.float t.rng f.Profile.jitter_s;
          note_transfer t ~retransmitted:(a > 1);
          !extra
        end
        else begin
          extra := !extra +. detect t a;
          attempt (a + 1)
        end
      in
      attempt 1
    end

(* Jitter and retransmission must not reorder deliveries: the channel is
   FIFO (sequence numbers), so completion times are clamped monotonic. *)
let deliver_at t completion =
  let completion = if completion < t.last_delivery then t.last_delivery else completion in
  t.last_delivery <- completion;
  completion

let round_trip_run t ~send_bytes ~recv_bytes =
  if t.window > 1 then stall_for_slot t;
  account t ~send_bytes ~recv_bytes;
  count t Metrics.Net_blocking_rtts 1;
  let extra =
    run_arq t ~op:"round_trip" ~legs:2 ~charge:Charge_exchange ~send_bytes ~recv_bytes
  in
  let latency = Profile.round_trip_s t.profile ~send_bytes ~recv_bytes +. extra in
  let lat_ns = int_of_float (latency *. 1e9) in
  Hist.record_opt t.hists Hist.Rtt_ns lat_ns;
  Grt_sim.Clock.advance_int t.clock lat_ns;
  ignore (deliver_at t (Grt_sim.Clock.now_int t.clock))

let round_trip t ~send_bytes ~recv_bytes =
  match t.tracer with
  | None -> round_trip_run t ~send_bytes ~recv_bytes
  | Some _ ->
    Tracer.span_opt t.tracer ~cat:Tracer.Link_exchange ~name:"round_trip" (fun () ->
        round_trip_run t ~send_bytes ~recv_bytes)

let async_send_run t ~send_bytes ~recv_bytes =
  if t.window > 1 then stall_for_slot t;
  account t ~send_bytes ~recv_bytes;
  count t Metrics.Net_async_sends 1;
  let extra =
    run_arq t ~op:"async_send" ~legs:2 ~charge:Charge_exchange ~send_bytes ~recv_bytes
  in
  let latency = Profile.round_trip_s t.profile ~send_bytes ~recv_bytes +. extra in
  let lat_ns = int_of_float (latency *. 1e9) in
  Hist.record_opt t.hists Hist.Rtt_ns lat_ns;
  let completion = deliver_at t (Grt_sim.Clock.now_int t.clock + lat_ns) in
  if t.window > 1 then begin
    let slot = (t.pipe_head + t.pipe_count) mod t.window in
    t.pipe_send.(slot) <- send_bytes;
    t.pipe_recv.(slot) <- recv_bytes;
    t.pipe_done.(slot) <- completion;
    t.pipe_count <- t.pipe_count + 1
  end;
  completion

let async_send_int t ~send_bytes ~recv_bytes =
  match t.tracer with
  | None -> async_send_run t ~send_bytes ~recv_bytes
  | Some _ ->
    Tracer.span_opt t.tracer ~cat:Tracer.Link_exchange ~name:"async_send" (fun () ->
        async_send_run t ~send_bytes ~recv_bytes)

let async_send t ~send_bytes ~recv_bytes =
  Int64.of_int (async_send_int t ~send_bytes ~recv_bytes)

let wait_until_int t deadline =
  if deadline > Grt_sim.Clock.now_int t.clock then begin
    count t Metrics.Net_stall_waits 1;
    Grt_sim.Clock.advance_to_int t.clock deadline
  end

let wait_until t deadline = wait_until_int t (Int64.to_int deadline)

(* One-way pushes retransmit on payload loss only; the tiny reverse ack is
   assumed reliable (its loss would be repaired by the next exchange). *)
let one_way_to_client t ~bytes =
  Tracer.span_opt t.tracer ~cat:Tracer.Link_exchange ~name:"one_way_to_client" (fun () ->
      if t.window > 1 then stall_for_slot t;
      count t Metrics.Net_msgs 1;
      count t Metrics.Net_bytes_tx bytes;
      charge_radio t ~tx_bytes:0 ~rx_bytes:bytes;
      let extra =
        run_arq t ~op:"one_way_to_client" ~legs:1 ~charge:Charge_push_to_client
          ~send_bytes:bytes ~recv_bytes:0
      in
      Grt_sim.Clock.advance_int t.clock
        (int_of_float ((Profile.one_way_s t.profile bytes +. extra) *. 1e9));
      ignore (deliver_at t (Grt_sim.Clock.now_int t.clock)))

let one_way_from_client t ~bytes =
  Tracer.span_opt t.tracer ~cat:Tracer.Link_exchange ~name:"one_way_from_client" (fun () ->
      if t.window > 1 then stall_for_slot t;
      count t Metrics.Net_msgs 1;
      count t Metrics.Net_bytes_rx bytes;
      charge_radio t ~tx_bytes:bytes ~rx_bytes:0;
      let extra =
        run_arq t ~op:"one_way_from_client" ~legs:1 ~charge:Charge_push_from_client
          ~send_bytes:0 ~recv_bytes:bytes
      in
      Grt_sim.Clock.advance_int t.clock
        (int_of_float ((Profile.one_way_s t.profile bytes +. extra) *. 1e9));
      ignore (deliver_at t (Grt_sim.Clock.now_int t.clock)))

let counter_int t key = match t.metrics with Some m -> Metrics.get_int m key | None -> 0

let blocking_rtts t = counter_int t Metrics.Net_blocking_rtts
let stall_waits t = counter_int t Metrics.Net_stall_waits
let retransmits t = counter_int t Metrics.Net_retransmits
let window_stalls t = counter_int t Metrics.Net_window_stalls
let inflight t = t.pipe_count

let bytes_tx t = match t.metrics with Some m -> Metrics.get m Metrics.Net_bytes_tx | None -> 0L

let bytes_rx t = match t.metrics with Some m -> Metrics.get m Metrics.Net_bytes_rx | None -> 0L
