(** The userspace GPU runtime (libmali/OpenCL stand-in).

    A session owns one GPU address space: it allocates buffers with
    ioctl-style usage flags, JIT-compiles hardware-neutral kernels into
    SKU-specific shaders (late binding, §2.4), emits job descriptors into
    command memory and submits job chains through the kernel driver.

    Buffers are two-scale: [model_bytes] is the paper-scale size used by the
    traffic/timing model (a VGG16 weight tensor is hundreds of MB), while
    [actual_bytes] is the materialized prefix real numerics run on. The
    model-scale remainder of a data buffer is mapped with 2 MiB blocks, so
    page tables have realistic shape without materializing gigabytes. *)

type usage = Code | Cmd | Input | Output | Weights | Scratch

val usage_is_metastate : usage -> bool
(** [Code] and [Cmd] regions are GPU metastate (§5): shaders, command lists
    and job descriptions. Everything else is program data. *)

type region = {
  name : string;
  usage : usage;
  va : int64;
  pa : int64;
  model_bytes : int;
  actual_bytes : int;
}

type t

val create :
  drv:Grt_driver.Kbase.t ->
  as_idx:int ->
  clock:Grt_sim.Clock.t ->
  ?energy:Grt_sim.Energy.t ->
  ?on_region:(region -> unit) ->
  unit ->
  t
(** The driver must already be initialized. [on_region] fires for every
    allocation — the recording orchestrator uses it to build the data-slot
    binding table. *)

val sku : t -> Grt_gpu.Sku.t
val as_idx : t -> int
val regions : t -> region list
val region_by_name : t -> string -> region option
val region_containing : t -> va:int64 -> region option

val alloc : t -> name:string -> usage:usage -> model_bytes:int -> actual_bytes:int -> region
(** Allocates physical pages for the materialized part, maps it into the GPU
    address space with flags derived from [usage], block-maps the modeled
    remainder, and flushes the MMU. *)

val shader_for : t -> Grt_gpu.Shader.op -> int64
(** VA of the JIT-compiled shader for [op]; compiled and mapped on first
    use (one-time cost per kernel). *)

val write_floats : t -> region -> float array -> unit
val read_floats : t -> region -> int -> float array

val build_chain : t -> Grt_gpu.Job_desc.t list -> int64
(** Write descriptors into command memory, linked in order; returns the
    chain head VA. [shader_va] fields may be 0 — they are filled from the
    JIT cache based on each job's [op]. *)

val submit : t -> chain_va:int64 -> unit
(** Run one chain to completion through the driver (job queue length 1). *)

val jit_compiles : t -> int
