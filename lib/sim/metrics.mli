(** Typed metric registry — the telemetry spine of the recorder and the
    only counter store.

    Every statistic the engine layers account (link exchanges, register
    traffic, commit pipeline, speculation, polling offload, memory sync,
    recovery, the client-side shim, the recording service) has a variant key
    here, so a typo in a counter name is a compile error and the set of
    metrics is enumerable. Each key also has a dotted {!name}; dumps and
    reports use it.

    A [t] keeps one int cell per key and remembers which keys were ever
    bumped. A key that was never bumped is absent from {!to_alist} and
    {!pp}; a key bumped by 0 is present. Bumps allocate nothing. *)

type key =
  | Net_msgs
  | Net_bytes_tx
  | Net_bytes_rx
  | Net_blocking_rtts
  | Net_async_sends
  | Net_stall_waits
  | Net_retransmits
  | Net_drops
  | Net_corrupt_drops
  | Net_dups
  | Net_link_downs
  | Net_degraded_entries
  | Net_degraded_exits
  | Net_window_stalls  (** sends that stalled waiting for a free window slot *)
  | Net_gbn_retransmits
      (** frames re-sent as part of a go-back-N span (span sizes summed) *)
  | Reg_reads
  | Reg_writes
  | Commits_total
  | Commits_speculated
  | Commits_sync
  | Commits_accesses
  | Spec_mispredicts
  | Spec_rejected_nondet
  | Spec_epoch_stalls
  | Spec_dep_stalls
  | Spec_degraded_suppressed
  | Spec_inflight_hw
      (** high-water mark of speculative commits outstanding at once (only
          tracked when pipelining is configured) *)
  | Spec_cross_hits
      (** confident speculation hits whose evidence came from a previous
          session sharing the {!Grt.Spec_history} table (§7.3) *)
  | Poll_instances
  | Poll_offloaded
  | Poll_iters
  | Irq_waits
  | Sync_down_events
  | Sync_down_wire_bytes
  | Sync_down_raw_bytes
  | Sync_up_events
  | Sync_up_wire_bytes
  | Sync_up_raw_bytes
  | Sync_pages_visited
      (** meta pages actually examined by [sync_meta] (dirty tracking skips
          the rest) *)
  | Sync_pages_meta  (** meta pages in scope per sync, before skipping *)
  | Sync_enc_raw
  | Sync_enc_raw_rc
  | Sync_enc_delta
  | Sync_enc_delta_rc
  | Sync_enc_hash_ref  (** shipped pages by chosen wire encoding *)
  | Sync_cross_hits
      (** page records satisfied from the fleet-shared content store (wire
          carries a hash reference; the logged record stays self-contained) *)
  | Sync_cross_saved_bytes  (** wire bytes saved by those cross-session hits *)
  | Fault_injected
  | Recovery_entries
  | Recovery_pages
  | Recovery_link_downs
  | Client_reg_reads
  | Client_reg_writes
  | Client_polls
  | Client_irq_waits
  | Client_uploads
  | Client_downloads
  (* recording service (fleet plane) *)
  | Svc_sessions  (** client sessions admitted by the recording service *)
  | Svc_recordings  (** recordings completed on behalf of cache misses *)
  | Svc_cache_hits  (** sessions served straight from the recording cache *)
  | Svc_cache_misses
      (** admission decisions that had to record (includes recordings that
          later failed, and waiters promoted to recorder after a failure) *)
  | Svc_coalesced  (** sessions that waited on an in-flight recording *)
  | Svc_failures  (** sessions that ended in a failed recording *)
  | Svc_evictions  (** cache entries evicted to make room *)
  | Svc_promotions
      (** coalesced waiters promoted to recorder after the elected
          recorder failed *)

val name : key -> string
(** Dotted name of a key (e.g. [Net_blocking_rtts] ->
    ["net.blocking_rtts"]). *)

val all : key list
(** Every key, in declaration order. *)

val of_name : string -> key option
(** Inverse of {!name}; [None] for counters outside the typed set. *)

type t

val create : unit -> t
(** A fresh store: every key at zero, none touched. *)

val add : t -> key -> int -> unit
val add64 : t -> key -> int64 -> unit
val incr : t -> key -> unit

val get : t -> key -> int64
val get_int : t -> key -> int
(** Untouched keys read as zero. *)

val to_alist : t -> (string * int) list
(** The touched keys as [(name, value)], sorted by name. *)

val merge_into : dst:t -> src:t -> unit
(** Adds every touched key of [src] into [dst], which marks it touched
    there too. *)

val pp : Format.formatter -> t -> unit
(** One line per touched key, in {!to_alist} order: the name padded to 40
    columns, a space, the value. *)
