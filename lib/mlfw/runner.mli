(** Executes a network plan on a GPU session.

    One GPU job per submission: the driver's job queue length is pinned to 1
    (§5), so each of the plan's jobs becomes its own descriptor chain and
    [run] submits them strictly in order — the deterministic, serialized
    execution the recorder relies on (§2.3). *)

type t

val setup :
  session:Grt_runtime.Session.t ->
  plan:Network.plan ->
  seed:int64 ->
  load_weights:bool ->
  t
(** Allocate every buffer of the plan in the session's address space and,
    when [load_weights] (native execution), write the deterministic weight
    values into GPU memory. During a record run the weights stay zero —
    GR-T's dry run never sees model parameters (§7.1). *)

val plan : t -> Network.plan
val session : t -> Grt_runtime.Session.t
val region : t -> string -> Grt_runtime.Session.region
(** Raises [Not_found] for unknown buffer names. *)

val weight_values : Network.plan -> seed:int64 -> (string * float array) list
(** The deterministic weights for a plan: fan-in-scaled uniforms. Exposed so
    the replayer (inside the TEE) can inject the same parameters the native
    run used. *)

val input_values : Network.plan -> seed:int64 -> float array

val set_input : t -> float array -> unit
val get_output : t -> float array

val run : ?between_layers:(prev:int -> next:int -> unit) -> t -> unit
(** Build and submit every job chain in order. [between_layers] fires at
    every layer boundary — the hook the recorder uses to cut per-layer
    recording segments (Figure 2). *)
