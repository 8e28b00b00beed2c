(** Nested span tracing over the virtual clock.

    Every recorder phase the paper accounts for (§4.1/§4.2 round trips,
    commit batches, rollbacks; §7's breakdowns) gets a typed {!category}.
    Spans nest — [with_span] runs a thunk and records the virtual-time
    interval it covered, attributing the interval to the innermost open span
    (self time) while every enclosing span still sees it in its total.
    Spans close even when the thunk raises (rollbacks unwind through open
    commit spans), so the begin/end stream is balanced by construction.

    The tracer never advances the clock and is threaded as an [option]:
    [span_opt None] is a direct call, so default (untraced) sessions are
    byte-identical to pre-tracer builds.

    Exports: {!to_chrome_json} emits Chrome trace-event JSON (loadable in
    Perfetto / [chrome://tracing]); {!summary} aggregates per-category
    self/total attribution for session reports. *)

type category =
  | Establish  (** attested channel establishment (§7.1) *)
  | Boot  (** recording-VM boot and session admission (§6) *)
  | Commit  (** deferred-batch commit, sync or speculative (§4.1) *)
  | Validate_speculation  (** waiting on + checking an async response (§4.2) *)
  | Rollback_recovery  (** misprediction / link-down rollback (§4.2) *)
  | Poll_offload  (** polling loop shipped in one message (§4.3) *)
  | Memsync_down  (** cloud→client metastate dump (§5) *)
  | Memsync_up  (** client→cloud dump with a forwarded interrupt (§5) *)
  | Link_exchange  (** one wire exchange (round trip, async send, push) *)
  | Svc_cache_lookup  (** recording-service cache decision at admission *)
  | Svc_coalesce_wait  (** waiting on an in-flight recording for the same key *)
  | Svc_turnstile_wait  (** queued behind the per-key recording turnstile *)
  | Svc_record  (** service-driven record of a cache miss *)
  | Svc_serve_cached  (** pushing a cached blob to a client *)
  | Svc_evict  (** LRU eviction making room in the recording cache *)
  | Svc_promotion  (** a coalesced waiter promoted to recorder after a failure *)

val category_name : category -> string
(** Stable kebab-case name (e.g. ["validate-speculation"]); used as the
    Chrome event [cat] and the report key. *)

val all_categories : category list

type span = {
  sp_name : string;
  sp_cat : category;
  sp_args : (string * string) list;
  sp_start_ns : int64;
  sp_stop_ns : int64;
  sp_self_ns : int64;  (** duration minus time inside child spans *)
  sp_depth : int;  (** nesting depth at open (0 = top level) *)
}

type t

val create : ?limit:int -> Clock.t -> t
(** [limit] caps retained spans (default 1_000_000); past it, completed
    spans are dropped and counted in {!dropped}. *)

val with_span :
  t -> cat:category -> ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span. Exception-safe: the span closes (and the
    exception propagates) even when the thunk raises. [args] become the
    Chrome event's [args] object. *)

val span_opt :
  t option -> cat:category -> ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** [with_span] when a tracer is present; a direct call otherwise. *)

val instant : t -> cat:category -> ?args:(string * string) list -> string -> unit
(** Zero-duration marker event. *)

val instant_opt : t option -> cat:category -> ?args:(string * string) list -> string -> unit

val spans : t -> span list
(** Completed spans, in completion order. *)

val span_count : t -> int
val dropped : t -> int
val open_depth : t -> int
(** Number of spans currently open (0 once a session unwound cleanly). *)

type cat_stat = { total_ns : int64; self_ns : int64; spans : int }

val summary : t -> (category * cat_stat) list
(** Per-category attribution over completed spans, in {!all_categories}
    order (categories with no spans included with zeros). *)

val to_chrome_json : t -> string
(** Chrome trace-event JSON array: one ["B"]/["E"] pair per completed span
    (in well-nested emission order) plus ["i"] instants. Timestamps are
    virtual microseconds. Spans still open are omitted, so the stream stays
    balanced. *)

(** {2 Multi-track export}

    A fleet run owns many tracers — one per client session (each over its
    own session-local clock) plus one for the service itself. A {!track}
    places one tracer on a Perfetto thread lane: [track_tid] is the lane,
    [track_offset_ns] shifts the tracer's session-local timestamps onto the
    fleet-global timeline (a session that arrived at t=5ms has offset
    5_000_000). Several tracks may share a [track_tid]: a promoted waiter's
    record-phase tracer renders on the same lane as its serve-phase tracer. *)

type track = {
  track_tid : int;
  track_name : string;  (** Perfetto lane label, e.g. ["client-17"] *)
  track_offset_ns : int64;
  track_tracer : t;
}

val tracks_chrome_json : ?process_name:string -> track list -> string
(** Chrome trace-event JSON for a whole fleet: [process_name] /
    [thread_name] metadata events followed by every track's balanced
    ["B"]/["E"]/["i"] stream stamped with its [track_tid] and shifted onto
    global time. Load in Perfetto: one named lane per session. *)

val summary_json : t -> Grt_util.Json.t
(** [{"<category>": {"total_s":..,"self_s":..,"spans":..}, ...}] *)
