(** Compute kernels — the numerics the shader cores perform.

    Tensors are FP32 in CHW layout at GPU virtual addresses. Kernels see
    memory as 4 KiB pages of bytes through per-operand {!stream}s — one-entry
    TLBs the memory provider refills on miss (performing MMU translation on
    the device), exactly as real shader cores fetch through their own TLBs.
    Distinct streams per operand keep alternating input/weight accesses from
    thrashing a shared cache, and the stream hit path is free of [int64] and
    float boxing. Output-channel partitioning ([part_idx]/[part_count]) lets
    the runtime split one logical operator across several GPU jobs.

    {b Staged convolution.} Every operator is defined by its per-element
    loop: each output is its bias, then [v *. w] summed over input channel,
    kernel row and kernel column in that order (taps in the padding
    skipped), then ReLU, read and written through the streams. [Conv2d]
    gets the same floats cheaper: it decodes the job's read set once — the
    input rows and columns and the kernel taps the loop reads, nothing else
    — into a grow-only float scratch, and runs the multiply-adds there in
    the loop's order, with each output position's valid tap range computed
    once. Where the read set has no gaps, staging decodes it in runs: the
    whole weight block when every kernel row and column is read, and each
    read input row when every input column is; each page of a run is
    resolved once and decoded in one loop. A position's valid kernel rows
    depend only on its output row and its valid kernel columns only on its
    output column, so each channel's plane splits into rectangles of equal
    tap ranges (the interior, each border row and column, the corners).
    Each rectangle is walked in row order, across row ends, in blocks of
    four positions (eight when the range is three taps wide) that share
    each weight load; the tap loop is unrolled for ranges three and five
    taps wide. Each output keeps its own accumulator and adds its
    products in the loop's order; what is left of a rectangle (fewer than
    four positions) runs one output at a time. Outputs go to the scratch
    and are written at the end in ascending order, one page at a time.
    Outputs are bit-identical, and three rules keep the job
    indistinguishable from the loop at the streams:
    - staging resolves exactly the pages the loop reads, then the output
      pages in write order (translation has no side effects), though not in
      the loop's order;
    - a raise while staging reruns the loop from the start, so the job
      raises the loop's own first fault after the loop's own writes;
    - a job whose output bytes overlap a source operand's by VA, or whose
      output pages include a page object staging read from (one page at two
      VAs), runs the loop, because its writes would change what it reads.
    Pages are told apart by object identity, so a provider must give every
    written page its own object ([Device]'s shared zero page only serves
    reads). Jobs too large to stage (malformed descriptors only) also run
    the loop. [Depthwise] stages the same way under the same rules: its
    channel [c] is a one-channel conv of input plane [c], so its weight
    block is one plane of taps per channel. [Maxpool], [Relu], [Copy] and
    [Concat2] keep the streams but move and compare f32 bit patterns
    instead of decoding and re-encoding them: a NaN, whose trip through a
    double may quiet it, takes that trip, so every stored bit pattern is
    the loop's.

    [Fc] is left as its loop: each weight is read exactly once per job, so
    decoding the weights into a scratch first would not save a single
    decode, and the input vector is read once per output with a stream hit
    each time. *)

exception Kernel_fault of string

type stream = {
  mutable sbase : int;  (** page-aligned VA of the cached page; -1 = empty *)
  mutable spage : bytes;  (** backing bytes of that page (4 KiB) *)
  smiss : stream -> int -> bytes;
      (** refill: resolve the page holding [va], cache it in the stream
          ([sbase]/[spage]), and return it. May raise (e.g. a translation
          fault). *)
}

type ctx = {
  c_in : stream;  (** first input tensor *)
  c_in2 : stream;  (** second input / weights *)
  c_bias : stream;  (** bias vector *)
  c_out : stream;  (** output tensor (write stream) *)
}

val new_stream : (stream -> int -> bytes) -> stream
(** Fresh empty stream with the given miss handler. *)

val getf : stream -> int -> float
(** Read the FP32 at a (4-aligned) GPU VA through the stream's page cache. *)

val setf : stream -> int -> float -> unit
(** Write the FP32 at a (4-aligned) GPU VA through the stream's page cache. *)

(** A self-contained paged address space for [ctx]s not backed by a simulated
    device: the CPU reference executor and kernel unit tests. Pages
    materialize on first touch (untouched memory reads as zeros) and are
    shared across all four streams, so reads observe prior writes. *)
module Flat : sig
  type t

  val create : unit -> t
  val ctx : t -> ctx

  val read_f32 : t -> int64 -> float
  val write_f32 : t -> int64 -> float -> unit
end

val execute : ctx -> Job_desc.t -> unit
(** Run the job's operator. Raises {!Kernel_fault} on inconsistent shapes or
    unaligned tensor VAs. *)

val partition_range : total:int -> part_idx:int -> part_count:int -> int * int
(** [(first, count)] of the slice a partition covers; partitions differ by at
    most one element and tile the whole range. *)

val flops : Shader.op -> Job_desc.params -> int64
(** Analytic FLOP count of a job at the shapes given — used both by the
    runtime to stamp [flops_hint] at model scale and by tests. *)
