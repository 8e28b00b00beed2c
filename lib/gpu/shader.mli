(** Shader binaries.

    A shader is what the per-SKU JIT emits for one hardware-neutral kernel:
    a header binding it to a GPU id plus a code section whose size and tiling
    reflect the SKU (core count drives the tile size, §2.4). The GPU refuses
    to run a shader built for a different SKU — this is what makes replay
    recordings SKU-specific, and what the [sku_matrix] example demonstrates. *)

type op =
  | Copy
  | Relu
  | Add
  | Concat2
  | Softmax
  | Maxpool
  | Avgpool
  | Conv2d
  | Depthwise
  | Fc
  | Tanh
  | Sigmoid
  | Mul  (** elementwise product — recurrent gating *)

val op_code : op -> int
val op_of_code : int -> op option
val op_name : op -> string

val magic : int64

val tile_size : Sku.t -> int
(** SKU-dependent codegen decision: work-group tile derived from the shader
    core count. *)

val compile : sku:Sku.t -> op:op -> bytes
(** Emit the shader binary for [op] on [sku]. Deterministic. *)

val size_bytes : op -> sku:Sku.t -> int

type header = { version : int; gpu_id : int64; op : op; tile : int; code_len : int }

val parse_header : bytes -> (header, string) result

val header_size : int

val header_matches : bytes -> int -> gpu_id:int64 -> op:op -> bool
(** Whether the [header_size] bytes at the offset are a header that
    {!parse_header} accepts with this [gpu_id] and [op], read in place
    without allocating. False means: ask {!parse_header} what is wrong. *)
