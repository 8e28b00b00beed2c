(** Recorder configurations compared in the evaluation (§7.2).

    - [Naive]: a blocking round trip per register access, full GPU memory
      synchronized before/after every job.
    - [Ours_m]: adds meta-only memory synchronization (§5).
    - [Ours_md]: adds register access deferral (§4.1) — one RTT per commit.
    - [Ours_mds]: adds speculation and polling-loop offload (§4.2, §4.3) —
      GR-T with all techniques. *)

type t = Naive | Ours_m | Ours_md | Ours_mds

val all : t list
val name : t -> string
val of_name : string -> t option
val pp : Format.formatter -> t -> unit

val meta_only_sync : t -> bool
val deferral : t -> bool
val speculation : t -> bool

(** Fine-grained knobs, for the ablation benches. Lock/unlock always commit
    (§4.1), and a persistently lossy link always suspends speculation until
    it recovers; the cap on speculative commits in flight is the link's
    sliding window, set where the link is built: the window when it is
    above 1, unbounded on a stop-and-wait link. *)
type config = {
  mode : t;
  spec_history_k : int;  (** confidence threshold (paper: 3) *)
  offload_polling : bool;
  compress_dumps : bool;
  delta_dumps : bool;
  hot_function_scope : bool;  (** restrict deferral to profiled hot functions *)
  continuous_validation : bool;
      (** §5's safety net: unmap dumped regions from the CPU between a job
          start and its completion so spurious accesses trap *)
  memsync_tagged : bool;
      (** tagged page records: each shipped page carries the cheapest
          encoding (raw / range-coded raw / delta / range-coded delta), or an
          8-byte hash reference when the peer provably holds its body
          already. Changes the wire and recording format, so it is off by
          default. *)
}

val default_config : t -> config
