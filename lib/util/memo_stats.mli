(** Process-wide profiling registry for the content-keyed memo tables.

    The hot-path memos (range-coder encode/decode) are pure caches: they
    can only change performance, never bytes. That also makes them
    invisible — a memo that thrashes or whose quick-key collides shows up
    as wall-clock, not as a counter. Each memo
    registers one [t] here and bumps it from its own hit/miss branches, so
    [bench speed --json] can attribute cache behaviour per memo. The
    [recording.verify] cell counts the verdicts resident blobs keep
    ([Recording.verify_resident]): a miss per first check under a key, a
    hit per re-serve; it holds no table, so its gauges stay 0.

    Counters are plain [int] cells on the host side of the simulation: they
    are deliberately outside the virtual clock, the typed {!Metrics} plane
    and every recorded blob, so instrumentation cannot perturb outcomes.

    - [hits]        full-verification hits ([Bytes.equal] passed)
    - [misses]      lookups that had to recompute (absent or mismatched)
    - [mismatches]  quick-key matched but the full compare failed (the
                    collision the full verification exists to catch); every
                    mismatch is also counted as a miss
    - [evictions]   entries dropped with an old generation or overwritten
                    by a colliding key, summed
    - [resident] / [resident_bytes]  live-entry gauges over every table of
      the memo (approximate key + payload footprint as reported by the call
      site)
    - [bound_bytes]  the most a memo bounded by bytes keeps resident, when
      it declared one at {!register}: its [resident_bytes] never exceed
      it *)

type t

val register : ?bound_bytes:int -> string -> t
(** [register name] returns the stats cell for [name], creating it on first
    use. Idempotent: the same name always yields the same cell (with the
    bound of its first registration), so module initialisers can call it
    unconditionally. *)

val name : t -> string

val hit : t -> unit
val miss : t -> unit
val mismatch : t -> unit

val dropped : t -> entries:int -> bytes:int -> unit
(** [entries] live entries occupying [bytes] left the memo while the rest
    stayed (an old generation, or an entry overwritten by a colliding key):
    adds to the eviction counter, and both gauges fall by exactly that. *)

val added : t -> bytes:int -> unit
(** A new entry became resident, occupying roughly [bytes]. *)

type snap = {
  s_hits : int;
  s_misses : int;
  s_mismatches : int;
  s_evictions : int;
  s_resident : int;
  s_resident_bytes : int;
  s_bound_bytes : int option;
}

val snapshot : t -> snap
(** The current counters for [t]. *)

val all : unit -> t list
(** Every registered cell, sorted by name. *)

val reset_counters : unit -> unit
(** Zero hit/miss/mismatch/eviction counters on every cell, keeping the
    resident gauges (they describe live tables, not a sampling window).
    The bench harness calls this before each measured row. *)

val snap_json : snap -> Json.t
val to_json : unit -> Json.t
(** Object keyed by memo name, each value a {!snap_json}; a
    [bound_bytes] field appears only on memos that declared a bound. *)
