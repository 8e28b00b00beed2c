(** Recordings: the interaction log plus the data-slot binding table.

    A recording is what the cloud service produces from a dry run and what
    the client TEE replays (§2.3, §3.2). It contains:

    - the ordered CPU→GPU stimuli and GPU→CPU responses: register writes,
      register reads (with expected values), polling loops, interrupt waits;
    - memory images: the metastate pages (page tables, shaders, command
      streams) the cloud synchronized before each job;
    - the binding table: where new inputs, model parameters and outputs live
      in the recorded GPU address space — replay injects fresh data there;
    - the SKU identity it was recorded against, and the cloud's signature.

    The replayer refuses recordings whose signature does not verify or whose
    SKU does not match the local GPU (§2.4). *)

type entry =
  | Reg_write of { reg : int; value : int64 }
  | Reg_read of { reg : int; value : int64; verify : bool }
      (** [verify = false] for legitimately nondeterministic registers *)
  | Poll of {
      reg : int;
      mask : int64;
      cond : Grt_gpu.Regs.poll_cond;  (** encoded 1 = [Bits_set], 0 = [Bits_clear] *)
      max_iters : int;
      spin_ns : int64;
    }
  | Wait_irq of { line : Grt_gpu.Device.irq_line }
  | Mem_load of Memsync.logged
      (** a metastate image in {!Memsync}'s logged form; untagged and
          tagged images keep their own blob tags (5 and 6) *)

val irq_line_code : Grt_gpu.Device.irq_line -> int
(** The line's number in the blob (0 = job, 1 = gpu, 2 = mmu), also the
    number diagnostics print. The decoder rejects any other byte. *)

type slot = {
  slot_name : string;
  kind : [ `Input | `Output | `Param ];
  va : int64;
  pa : int64;
  actual_bytes : int;
  model_bytes : int;
}

type t = {
  workload : string;
  gpu_id : int64;
  entries : entry array;
  slots : slot list;
}

val input_slot : t -> slot option
val output_slot : t -> slot option
val param_slots : t -> slot list

val default_chunk_entries : int
(** Entries per chunk used by [sign] unless overridden (64). *)

val sign : ?chunk_entries:int -> key:Grt_tee.Crypto.key -> t -> bytes
(** The signed blob the client downloads. There is one wire format
    (version 2): the entry log is split into chunks of [chunk_entries]; the
    MACed header carries each chunk's FNV hash and their Merkle root, so a
    replayer can verify chunks as it streams them. Any other version is
    rejected with [Error "recording: unsupported version N"]. *)

val verify : key:Grt_tee.Crypto.key -> bytes -> (unit, string) result
(** The client's yes/no check before it accepts a blob: header MAC, Merkle
    root, body layout, then every chunk hash over its byte range in the
    blob. Decodes no entries and copies no chunk. [Ok ()] exactly when
    [verify_and_parse] would succeed on a blob [sign] produced, or on any
    tampering of one. Verdicts are memoized (keyed on key and blob
    content, hits confirmed by a full comparison); a blob is copied into
    the memo on its second verification, not its first. *)

val verify_and_parse : key:Grt_tee.Crypto.key -> bytes -> (t, string) result
(** [parse_signed] followed by an eager [verify_chunk] on every chunk: the
    full check for callers that need the entries. Not memoized. *)

(** {2 Resident blobs}

    What the recording service keeps of a published recording and serves
    from: the signed blob, which nobody may change while it is resident,
    plus the verdict of the first full check under a key. *)

type resident

val resident_lent : bytes -> resident
(** A resident over [blob] itself, without a copy. The caller must keep
    [blob] unchanged until it calls {!own}: a kept verdict vouches for
    these bytes. *)

val own : resident -> unit
(** Copy a lent resident's bytes, once; from then on the lender may change
    its bytes without reaching the resident. The verdict is kept: the copy
    holds the bytes it vouches for. *)

val resident_length : resident -> int
(** Bytes of the signed blob, as downloaded. *)

val verify_resident : key:Grt_tee.Crypto.key -> resident -> (unit, string) result
(** The verdict {!verify} gives the resident's bytes. The first call under
    a key runs the full check and keeps its verdict; a later call under
    the same key returns it without hashing or comparing a byte. Counted
    as a miss, then hits, of the [recording.verify] memo statistics; the
    resident's bytes are not charged to that memo. *)

(** {2 Streaming access}

    The replay compiler parses the signed header once and defers each
    chunk's hash check to just before that chunk executes. *)

type chunk = {
  chunk_first : int;  (** index of the chunk's first entry in the log *)
  chunk_count : int;
  chunk_hash : int64;  (** signed FNV-1a hash of [chunk_raw] *)
  chunk_raw : bytes;
}

type verified = {
  vrec : t;
  vchunks : chunk array;
  vroot : int64;  (** Merkle root over chunk hashes — the recording's identity *)
}

val parse_signed : key:Grt_tee.Crypto.key -> bytes -> (verified, string) result
(** Verify the MACed header, check that the chunks it declares tile the
    rest of the blob, then slice and parse every chunk. Chunk bodies are
    {e not} hash-checked here: callers stream-verify them with
    [verify_chunk], or use [verify_and_parse] for the eager contract.
    Malformed or hostile bytes anywhere give [Error], never an exception
    (among them a verify, poll-condition or IRQ-line byte [sign] never
    writes), and allocation stays in proportion to the blob, not to the
    counts and lengths it declares. *)

val verify_chunk : chunk -> bool
(** [verify_chunk c] recomputes [c.chunk_raw]'s hash against the signed
    [c.chunk_hash]. *)

val merkle_root : int64 list -> int64
(** Pairwise [Hashing.combine] fold; the identity attested for a replay. *)

val count_entries : t -> [ `Writes | `Reads | `Polls | `Irqs | `Mem_pages ] -> int
