(** TrustZone worlds and the address-space controller.

    The TZASC partitions physical address ranges (and the GPU MMIO block)
    between the normal world and the secure world. GPUShim flips the GPU's
    assignment when a record or replay session starts and restores it after
    (§3.2, §6); any normal-world access to a secure resource while it is
    locked raises a (recorded) violation instead of silently succeeding. *)

type world = Normal | Secure

type violation = {
  world : world;
  what : string;  (** resource name, e.g. "gpu-mmio" *)
}

exception Access_denied of violation

type t

val create : unit -> t

val add_resource : t -> name:string -> secure:bool -> unit
(** Register a protectable resource (GPU MMIO, GPU memory carveout,
    power/clock controls). *)

val set_secure : t -> name:string -> bool -> unit
(** Flip a resource's world assignment (secure-monitor operation). *)

val is_secure : t -> name:string -> bool

val check_access : t -> world -> name:string -> unit
(** Raises {!Access_denied} when [world = Normal] and the resource is
    secure. Secure world may access everything. Violations are also
    counted. *)

val violations : t -> violation list
(** Most recent first. *)
