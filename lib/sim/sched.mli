(** Cooperative multiplexing of sessions over one virtual timeline.

    Each spawned task carries a private {!Clock} (its session-local
    timeline) plus an arrival offset; the task's global time is
    [arrival + Clock.now clock]. Blocking waits inside the task advance its
    clock and hit a {!Clock.yield} point, which suspends the task; the run
    loop always resumes the runnable task with the smallest global time
    (FIFO on ties). A session run under the scheduler therefore observes
    exactly the clock readings it would observe running alone — multiplexing
    is invisible to the session — and the interleaving is a deterministic
    function of the task set.

    Tasks are one-shot effect-handler coroutines, strictly serial: exactly
    one task or the scheduler runs at any instant. *)

type t
type task
type cond

val create : unit -> t
(** A fresh scheduler. *)

val spawn :
  t -> ?arrival_ns:int64 -> name:string -> clock:Clock.t -> (unit -> unit) -> task
(** [spawn t ~arrival_ns ~name ~clock body] registers a task whose local
    timeline is [clock], entering the global timeline at [arrival_ns]
    (default 0). Installs the clock's yield hook for the task's lifetime. *)

val new_cond : unit -> cond

val await : t -> cond -> unit
(** Park the running task on [cond] until {!signal_all}. Must be called from
    inside a task body. Waiting consumes virtual time: on wake the task's
    clock has been advanced to the signal instant. *)

val signal_all : t -> cond -> unit
(** Wake every waiter at the caller's current global time, in FIFO await
    order. Callable from a task or from outside the run loop. *)

val run : t -> unit
(** Drive all tasks to completion in global virtual-time order.

    A task body that raises does not abort the run: the failure is recorded
    and the remaining tasks continue ({!failures} lists them afterwards).
    @raise Deadlock if tasks remain parked on conditions nobody signals. *)

exception Deadlock of string list

val failures : t -> (string * exn * Printexc.raw_backtrace) list

val now_ns : t -> int64
(** High-water global virtual time reached by the run loop. *)

val yields : t -> int
(** Total task suspensions (yield-point hits) so far. *)

val switches : t -> int
(** Total task resumptions by the run loop. *)

val runnable : t -> int
(** Tasks currently queued runnable (ready-heap occupancy); excludes the
    running task and tasks parked on conditions. *)

val set_switch_observer : t -> (int -> unit) option -> unit
(** Install (or clear) an observability hook called at every context switch
    with {!runnable} at that instant — the fleet plane samples it into a
    queue-depth histogram. The hook must not advance clocks or touch the
    scheduler; [None] (the default) costs one branch per switch. *)
