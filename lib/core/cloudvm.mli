(** The cloud recording VM (§3.2, §6).

    The cloud service keeps one lean VM image per GPU-stack variant. The
    image carries no GPU hardware; instead a *device tree* describes the
    client's GPU so the stack can run transparently against the forwarding
    shim. A single image embeds device trees (and thus driver bindings) for
    every supported GPU family; when a VM boots to serve a client, the
    matching device tree is selected from the client's attested GPU
    identity and the corresponding driver is loaded (§6's "load per-GPU
    device-tree when a VM boots").

    A VM instance is sealed to exactly one client: it refuses a second
    session, and tearing it down wipes its recording state — recordings are
    never cached across clients (§3.1). *)

type devicetree = {
  compatible : string;  (** e.g. "arm,mali-bifrost" *)
  model : string;  (** human name, e.g. "mali-g71" *)
  gpu_id : int64;  (** identity the driver probe must find *)
  mmio_base : int64;
  irq_lines : int list;  (** job, gpu, mmu *)
  coherency_ace : bool;
}

val devicetree_for : Grt_gpu.Sku.t -> devicetree
(** The tree the image ships for a catalog SKU. *)

type image = {
  image_name : string;
  kernel : string;
  gpu_stack : string;
  trees : devicetree list;
  measurement : Grt_tee.Attestation.measurement;
}

val default_image : image
(** The image used by the evaluation: ACL + libmali + the Bifrost driver,
    with device trees for every catalog SKU. *)

type t
(** A booted VM instance. *)

type boot_error =
  | Unsupported_gpu of int64  (** no devicetree matches the client's GPU *)
  | Already_serving  (** the VM is sealed to another client *)

val pp_boot_error : Format.formatter -> boot_error -> unit

val boot : image -> client_gpu_id:int64 -> (t, boot_error) result
(** Select the device tree matching the client GPU and "load" the driver
    binding for it. *)

val selected_tree : t -> devicetree

val begin_session : t -> client:string -> (unit, boot_error) result
(** Seal the VM to one client. A second client is refused. *)

val end_session : t -> unit
(** Release and scrub: recording state is destroyed, never reused. *)

val serving : t -> string option
val sessions_served : t -> int
