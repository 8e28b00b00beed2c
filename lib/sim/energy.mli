(** Whole-client energy model (§7.4).

    The paper measures the HiKey960's power at the barrel jack while
    recording and replaying. We model the client as a set of power rails —
    SoC base, CPU busy, radio TX/RX, GPU busy — and integrate power over the
    virtual clock. Components toggle their rails as they work; energy is the
    integral of the sum of active rails. *)

type rail = Soc_base | Cpu_busy | Radio_tx | Radio_rx | Gpu_busy

val rail_power_w : rail -> float
(** Calibrated against small-board measurements: SoC base ~1.3 W, CPU busy
    adds ~1.6 W, WiFi TX ~0.9 W / RX ~0.7 W, GPU busy ~2.4 W. *)

type t

val create : Clock.t -> t
(** A meter on [clock]: each rail's draw is integrated over the virtual
    time it spends active, computed from the clock when read. [Soc_base]
    is always active. *)

val set_active : t -> rail -> bool -> unit
val with_rail : t -> rail -> (unit -> 'a) -> 'a
(** Activates the rail for the duration of the callback (restores the
    previous state afterwards, exception-safe). *)

val charge_j : t -> rail -> float -> unit
(** Event-based charge: add [j] joules to a rail directly, without advancing
    the clock. Used for transfers whose duration is tracked elsewhere (e.g.
    asynchronous network sends overlapping computation). *)

val total_j : t -> float
(** Energy consumed since creation or last [reset], in joules. *)

val by_rail_j : t -> (rail * float) list
val reset : t -> unit
