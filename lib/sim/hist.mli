(** Log-bucketed latency/size histograms (the distribution companion to the
    flat {!Metrics} counters).

    The paper's evaluation (§7) argues over distributions — where round
    trips, commit batches and rollbacks spend their time — so the hot paths
    record full histograms, not just totals. Buckets are powers of two:
    bucket 0 holds values [<= 0], bucket [i >= 1] holds
    [2^(i-1) <= v < 2^i]. Observation is an array increment; quantiles are
    estimated by linear interpolation inside the winning bucket, which keeps
    [quantile] monotone in its argument and bounded by the exact observed
    min/max.

    A {!set} is the session-wide registry: one histogram per typed {!key},
    threaded as an [option] beside the metrics handle so default runs pay
    nothing and stay byte-identical. *)

type t

val create : ?name:string -> unit -> t
val name : t -> string

val observe : t -> int -> unit
(** Record one non-negative sample (negative samples clamp to bucket 0). *)

val count : t -> int
val sum : t -> int64
val min_value : t -> int
(** Exact observed minimum; 0 when empty. *)

val max_value : t -> int
(** Exact observed maximum; 0 when empty. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0,1]; 0 when empty. Monotone in [q] and
    clamped to [[min_value, max_value]]. *)

val merge : into:t -> t -> unit
(** Pointwise sum of buckets/counts; min/max combine exactly. *)

val bucket_index : int -> int
(** The bucket a value lands in (exposed for tests). *)

val bucket_count : t -> int -> int
(** Occupancy of bucket [i]. *)

val buckets : int
(** Number of buckets. *)

val summary_json : t -> Grt_util.Json.t
(** [{"count":..,"sum":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}] *)

val pp : Format.formatter -> t -> unit

(** {2 The session registry} *)

type key =
  | Rtt_ns  (** per-exchange round-trip latency charged by the link, ns *)
  | Commit_accesses  (** register accesses per commit batch (§4.1) *)
  | Spec_validate_ns
      (** speculative-commit latency from async dispatch to validation *)
  | Rollback_depth  (** validated-log entries replayed per rollback (§4.2) *)
  | Gbn_span  (** frames resent per go-back-N retransmission *)
  | Sync_down_wire  (** cloud→client memsync wire bytes per event (§5) *)
  | Sync_up_wire  (** client→cloud memsync wire bytes per event (§5) *)
  | Sync_page_wire  (** wire bytes per shipped page record, header included *)
  | Replay_chunk_bytes  (** recording-chunk bytes hashed per streaming verify *)
  | Replay_exec_entries  (** log entries applied per compiled replay *)
  | Svc_turnaround_us  (** fleet: session turnaround, arrival to outcome (µs) *)
  | Svc_ttfb_us
      (** fleet: time-to-first-byte — virtual µs from arrival until the
          session starts being served or recorded (0 for an immediate cache
          hit; the coalesce/turnstile wait otherwise) *)
  | Svc_coalesce_wait_us  (** fleet: time spent waiting on an in-flight recording *)
  | Svc_turnstile_wait_us  (** fleet: time queued behind the per-key turnstile *)
  | Sched_runnable
      (** never sampled: fleet sessions run to completion, so no task
          queue exists. Kept because the end-to-end benchmark reads it. *)

val key_name : key -> string
val all_keys : key list

type set

val create_set : unit -> set
val get : set -> key -> t

val record : set -> key -> int -> unit
val record_opt : set option -> key -> int -> unit
(** No-op on [None] — the zero-cost-when-disabled path. *)

val merge_set : into:set -> set -> unit
(** {!merge} every keyed histogram pointwise — how SLO sets from several
    runs fold into one. Commutative up to the exact
    min/max/bucket sums, so merge order cannot change a report. *)

val set_json : set -> Grt_util.Json.t
(** Object keyed by {!key_name}, each value a {!summary_json}. *)
