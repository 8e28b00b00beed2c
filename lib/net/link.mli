(** Cost-accounting view of the cloud/client connection.

    The recording session is simulated in one process; the link does not move
    bytes, it charges their cost: virtual-clock delay, radio energy on the
    client, and statistic counters. It supports both blocking round trips
    (synchronous commits) and fire-and-forget sends whose completion time is
    returned so callers can overlap computation (speculative commits, §4.2).

    {b Transmission disciplines.} With the default [window = 1] every
    exchange runs stop-and-wait ARQ: lost or damaged legs time out, the
    sender backs off exponentially ([Grt_sim.Costs.link_rto_*]) and
    retransmits, and after [Grt_sim.Costs.link_max_attempts] failures the
    link raises [Link_down]. With [window = N > 1] the link becomes a
    sliding-window pipeline: up to N exchanges may be in flight at once
    (excess sends stall on the oldest completion — [net.window_stalls]),
    completion stays monotonic FIFO, and loss recovery is go-back-N — the
    receiver NAKs the first sequence hole ([Frame.Nak]) so the sender detects
    a loss after roughly one round trip instead of a backed-off RTO, then
    resends the oldest unacked frame plus every later in-flight frame (the
    span's bytes and energy are re-charged; [net.gbn_retransmits] counts the
    span sizes).

    Both disciplines draw faults from the same seeded [Grt_util.Rng] in the
    same order, so for a given (seed, profile, traffic) triple the exchange
    {e outcomes} (success / [Link_down] attempt counts) are identical across
    window sizes; only the modeled clock, energy, and counters differ. *)

type t

type health = Healthy | Degraded

exception Link_down of { attempts : int; op : string }
(** The ARQ gave up on an exchange: [attempts] sends (first try plus
    retransmissions) all timed out. The virtual clock has already been
    advanced past the final timeout when this is raised. *)

val create :
  clock:Grt_sim.Clock.t ->
  ?energy:Grt_sim.Energy.t ->
  ?metrics:Grt_sim.Metrics.t ->
  ?trace:Grt_sim.Trace.t ->
  ?tracer:Grt_sim.Tracer.t ->
  ?seed:int64 ->
  ?window:int ->
  Profile.t ->
  t
(** [seed] defaults to a fixed constant so fault draws are reproducible even
    when the caller does not thread a seed through. [window] (default 1 =
    stop-and-wait) is the sliding-window size: how many exchanges may be in
    flight before a send stalls; raises [Invalid_argument] if < 1. [trace]
    receives retransmit / link-down / degraded-transition / window events
    under topic ["link"]; it defaults to a fresh ring on [clock]. [tracer]
    gets a [Link_exchange] span per exchange; it defaults to off and costs
    nothing.
    [metrics] is the counter store every exchange bumps ([net.*]); pass the
    session's store, or read the counts back from the one you passed — the
    link has no counter readers of its own. It defaults to a fresh store.
    An observed store also gets the charged latency ([Rtt_ns]) and
    go-back-N span sizes ([Gbn_span]) through {!Grt_sim.Metrics.observe}. *)

val profile : t -> Profile.t

val window : t -> int
(** The configured sliding-window size (1 = stop-and-wait). *)

val set_profile : t -> Profile.t -> unit
(** Swap network conditions mid-session (e.g. an experiment moving from a
    clean to a lossy phase). Any windowed sends still in flight are drained
    first — the virtual clock advances to the last outstanding completion and
    the pipe empties — so exchanges priced under the old profile can never
    complete against the new one's costs. Counters and the degraded-health
    ring carry over. *)

val clock : t -> Grt_sim.Clock.t

val health : t -> health
(** [Degraded] once the retransmission rate over a ring of recent exchanges
    trips a high-water threshold; back to [Healthy] after the rate falls
    under a quarter of it (hysteresis, so the policy doesn't flap). *)

val inject_outage_after : t -> int -> unit
(** [inject_outage_after t n]: after [n] more successful exchanges, the next
    one deterministically times out every attempt and raises [Link_down].
    Test hook for recovery paths — independent of the random fault draws. *)

val round_trip : t -> send_bytes:int -> recv_bytes:int -> unit
(** Blocking exchange: advances the clock by the full round-trip latency
    (plus any retransmission timeouts and jitter) and counts one blocking
    RTT. In windowed mode, first stalls until a window slot is free. Raises
    [Link_down] if the ARQ gives up. *)

val async_send_int : t -> send_bytes:int -> recv_bytes:int -> int
(** Non-blocking exchange: charges bytes and energy now, returns the absolute
    virtual time, as an unboxed [int] of ns, at which the response will have
    arrived. Does not advance the clock and does not count a blocking RTT —
    except in windowed mode when the pipe already holds [window] exchanges,
    in which case the clock first advances to the oldest in-flight
    completion ([net.window_stalls]). Completion times are clamped monotonic
    so jitter never reorders the FIFO channel. Raises [Link_down] if the ARQ
    gives up. The speculation pipeline dispatches one exchange per commit,
    so the time stays an [int] (63 bits do not overflow) rather than a boxed
    [int64]. *)

val wait_until_int : t -> int -> unit
(** Advance the clock to an {!async_send_int} completion time (no-op if
    already past). Counts [net.stall_waits] only when an actual wait
    occurred. *)

val one_way_to_client : t -> bytes:int -> unit
(** Blocking one-way push (e.g. the final recording download). *)

val one_way_from_client : t -> bytes:int -> unit
(** Blocking one-way upload (interrupt forwarding plus the client's memory
    dump, §5). *)

val inflight : t -> int
(** Exchanges currently in the transmission pipe (always 0 when
    [window = 1]; in-flight entries whose completion has passed are only
    retired lazily, at the next send or [set_profile]). *)
