(** Bounded in-memory event trace with typed payloads.

    Components append timestamped events; tests, the failure post-mortem
    dump and the JSONL export can inspect them. Keeping the trace bounded
    (a ring of [capacity] events) makes it safe to leave enabled during
    long benchmark sweeps. The ring stores events in flat arrays, so the
    recorder's per-commit writes ({!commit}, {!speculate}) allocate nothing
    once the ring has grown to full size; {!event} values are built only
    when a reader asks for them.

    Payloads are a typed variant — a typo'd field is a compile error and the
    event stream is machine-readable ({!to_jsonl}) — while {!render} and
    {!pp_event} reproduce the historical one-line strings byte-for-byte for
    the stderr dump. *)

type payload =
  | Degraded of { rate : float }  (** link tripped to degraded health *)
  | Healthy of { rate : float }  (** link healed *)
  | Link_down of { op : string; attempts : int; extra_s : float }
  | Retransmit of { op : string; attempt : int; outage : bool }
  | Window_stall of { inflight : int }
  | Profile_swap of { draining : int }
  | Commit of { site : string; accesses : int }
  | Speculate of { site : string; checks : int }
  | Rollback of { site : string; reg : string; predicted : int64; actual : int64 }
  | Replay_live of { replayed : int }
      (** recovery prefix exhausted; the shim went live again *)
  | Evict of { label : string; client : int; blob_bytes : int }
      (** recording-service cache eviction while admitting [client] *)
  | Promote of { label : string; client : int }
      (** a coalesced waiter took over recording after the elected recorder
          failed *)
  | Rearm of { label : string; client : int }
      (** a failed recording left the entry blank; the next arrival (or
          promoted waiter) re-records *)

val payload_topic : payload -> string
(** The grouping topic: ["link"] for link events, ["shim"] for recorder
    events, ["service"] for recording-service events. *)

val render : payload -> string
(** The historical detail string (e.g.
    ["retransmit op=round_trip attempt=2"]). *)

type event = { at_ns : int64; payload : payload }

val topic : event -> string
val detail : event -> string

type t

val create : ?capacity:int -> Clock.t -> t
(** A ring retaining the newest [capacity] events (default 4096, at least
    1). It starts empty and grows eightfold on demand up to [capacity], so
    a quiet session allocates a few slots rather than the whole ring; once
    full it wraps, evicting the oldest event. *)

val event : t -> payload -> unit

val commit : t -> site:string -> accesses:int -> unit
(** [event t (Commit { site; accesses })] without building the payload:
    the hot-path form, which allocates nothing once the ring is full size.
    [site] is kept by reference (callers pass an interned site key). *)

val speculate : t -> site:string -> checks:int -> unit
(** [event t (Speculate { site; checks })], allocation-free like
    {!commit}. *)

val recent : ?topic:string -> t -> int -> event list
(** Most recent events first; optionally filtered by topic. *)

val all : ?topic:string -> t -> event list
(** Every retained event, oldest first; optionally filtered by topic. *)

val topics : t -> string list
(** Topics present among retained events, in first-appearance order. *)

val count : t -> int
(** Total events emitted (including evicted ones). *)

val retained : t -> int
(** Events still in the ring ([min count capacity]). *)

val capacity : t -> int
(** The retention bound given at {!create}, however much of it is
    allocated so far. *)

val pp_event : Format.formatter -> event -> unit

val event_json : event -> Grt_util.Json.t
(** [{"ts_ns":..,"topic":..,"kind":..,<payload fields>}] *)

val to_jsonl : t -> string
(** Retained events oldest-first, one JSON object per line (trailing
    newline included when non-empty). *)
