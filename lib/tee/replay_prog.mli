(** The replay compiler (ROADMAP item 2).

    Lowers a verified {!Recording.t} into a flat preprocessed program the
    replayer executes without re-parsing the blob or re-decoding memsync
    wire records: consecutive register writes fuse into one run, polls
    remember their first-success iteration from the previous execution
    (falling back to a live spin on mismatch), and the memory image is
    decoded once at compile time wherever the records are
    position-independent. Compile once, replay many — the batch fast path.

    Verification is {e streaming}: {!of_blob} checks the signed header
    only, and the executor ({!Replayer.replay_compiled}) checks each
    chunk's hash just before that chunk's ops run. *)

type op =
  | Write_run of { regs : int array; values : int64 array }
      (** fused run of consecutive register writes *)
  | Read of { reg : int; value : int64; verify : bool; index : int }
  | Poll of {
      reg : int;
      mask : int64;
      cond : Grt_gpu.Regs.poll_cond;
      max_iters : int;
      spin_ns : int64;
      index : int;
      mutable hint : int;
          (** first-success iteration of the last execution; -1 = unknown.
              The executor updates it after every poll. *)
    }
  | Wait_irq of { line : Grt_gpu.Device.irq_line; index : int }
  | Load_static of {
      pages : (int64 * bytes) array;
      learn : bool;
      mutable stamps : (Grt_gpu.Mem.t * int array) option;
    }
      (** memory image precomputed at compile time; [learn] = feed bodies to
          the execution store (true for tagged images, false for untagged
          ones, matching the interpreter). [stamps] holds the target
          memory and the per-page generation recorded right after the last
          install: on the next execution against the same memory, pages
          whose generation is unchanged provably still hold this image and
          are skipped. *)
  | Load_dynamic of {
      logged : Memsync.logged;
      index : int;
      mutable cached : (int64 * bytes) array option;
          (** installed by the executor after the first (live) decode *)
      mutable stamps : (Grt_gpu.Mem.t * int array) option;
          (** as [Load_static]'s, from the first (live) install on *)
    }

type group = {
  ops : op array;
  chunk : Recording.chunk;  (** the signed chunk backing these ops *)
  mutable checked : bool;  (** chunk hash verified (streaming, once) *)
}

type stats = {
  entries : int;
  ops : int;
  fused_writes : int;  (** register writes absorbed into multi-write runs *)
  static_pages : int;  (** memory-image pages decoded at compile time *)
  dynamic_loads : int;  (** entries that must decode against live memory once *)
  polls : int;
}

type t = {
  source : Recording.t;
  root : int64;  (** Merkle root over chunk hashes — the identity attested *)
  groups : group array;
  stats : stats;
  mutable uncached_dynamic : int;
      (** [Load_dynamic] ops whose [cached] is still [None]; the executor
          counts it down as it caches them, and needs a content store only
          while it is positive *)
}

val source : t -> Recording.t
val root : t -> int64
val stats : t -> stats

val compile : Recording.verified -> t
(** Raises [Failure] on a page record {!Memsync.decode_record} can never
    decode (see {!of_blob}). Records that need the live replay — deltas,
    and hash references to content the compile-time store has not seen —
    are left to the executor, which rejects them if they fail there. *)

val of_blob : key:Crypto.key -> bytes -> (t, string) result
(** [parse_signed] + [compile]: header-verified, chunk hashes left to the
    executor's streaming check. A page record that fails to decode during
    static lowering (a tampered chunk, or a signed but malformed record) is
    an [Error] too, not an exception. *)
