(** Virtual time.

    Every delay in the reproduction — register MMIO latency, network round
    trips, GPU job execution, driver compute — is modeled by advancing a
    virtual clock measured in nanoseconds. Whatever integrates over time
    (the energy meter) reads the clock when asked, so an advance does
    nothing but move the time.

    Every session owns its clock. A fleet run places a session on the
    shared timeline at [arrival + now] and expresses a wait on another
    session as {!advance_to} that session's instant. *)

type t

val create : unit -> t

val now_ns : t -> int64
(** Current virtual time in nanoseconds since creation. *)

val now_int : t -> int
(** [now_ns] as an unboxed [int] (time is stored as one internally; 63 bits
    of nanoseconds do not overflow). Hot paths that advance or compare
    against the clock on every simulated register access use the [_int]
    entry points to avoid boxing an [int64] per call. *)

val now_s : t -> float
(** Current virtual time in seconds. *)

val advance_ns : t -> int64 -> unit
(** [advance_ns t d] moves time forward by [d] ns. [d] must be
    non-negative. *)

val advance_s : t -> float -> unit

val advance_to : t -> int64 -> unit
(** [advance_to t deadline] moves time forward to [deadline] if it is in the
    future; no-op otherwise. *)

val advance_int : t -> int -> unit
(** [advance_ns] with an unboxed delta. *)

val advance_to_int : t -> int -> unit
(** [advance_to] with an unboxed deadline. *)

type span = { start_ns : int64; stop_ns : int64 }

val time : t -> (unit -> 'a) -> 'a * span
(** [time t f] runs [f] and reports the virtual span it covered. *)

val span_s : span -> float
