(** Selective memory synchronization (§5), and the one module that knows
    the page-record format.

    The cloud (GPU stack) and client (GPU) each hold a local memory; at job
    boundaries the shims exchange just enough of it to preserve the semantics
    of CPU/GPU interaction. A [t] is one endpoint:
    - as the {e sender} it holds the baseline of pages the peer is known to
      hold and a content-addressed store of every body it shipped;
      {!sync_meta} diffs the metastate against the baseline and encodes
      what changed.
    - as the {e receiver} of the opposite direction it holds the store that
      resolves inbound hash references; {!receive} installs a payload,
      learns its tagged bodies and teaches the same baseline, so a page that
      just arrived is not echoed back.

    Callers only send a payload, receive one, or install a logged entry
    ({!logged}, {!install}, {!receive}, {!receive_payload},
    {!decode_record}); no other module reads or writes a page record's
    encoding, and none but this module decides whether a record is decoded
    and learned.

    Metastate = page-table pages (walked from the registered roots) plus the
    materialized pages of regions mapped as [Code] or [Cmd]. Program data
    (inputs, weights, activations) is never shipped in meta-only mode; in
    Naive mode its *model-scale* size is charged per referenced buffer.

    One scan per sync: [sync_meta] walks the registered page-table roots
    (re-reading only the tables whose stamp moved), merges the table pages
    with the (sorted, eagerly maintained) metastate region pages, and skips
    every page whose {!Grt_gpu.Mem.page_gen} stamp has not moved since that
    pfn was last examined. Stamps only increase and an unchanged stamp means
    unchanged bytes, so a skipped page still matches its baseline; a page
    this endpoint's own receive installed, unwritten since, is visited but
    taken for its baseline without a compare. With [Mode.memsync_tagged]
    the wire switches to tagged page records carrying the cheapest encoding
    per page, including an 8-byte reference to content the peer provably
    holds.

    {b One body per changed page.} [sync_meta] copies a changed page out of
    the live memory once; that copy is the record's [data], the new baseline
    entry and what every store learns, and a live receiver
    ({!receive_payload}) keeps it too. A body decoded from a logged entry is
    likewise shared by the receiver's baseline and store. No body is ever
    mutated, and none is a live {!Grt_gpu.Mem} page buffer — installing one
    copies it into the receiving memory, and a live coded record is decoded
    over the receiving page itself. *)

type region = {
  name : string;
  meta : bool;
      (** metastate (shader code, command streams): its pages are synced;
          otherwise program data, only ever charged at model scale *)
  va : int64;
  pa : int64;
  model_bytes : int;
  actual_bytes : int;
}

(** How one shipped page is represented on the wire. [Enc_hash_ref] bodies
    are an 8-byte content hash; the other encodings are self-describing. *)
type encoding = Enc_raw | Enc_raw_rc | Enc_delta | Enc_delta_rc | Enc_hash_ref

val encoding_to_int : encoding -> int
val encoding_of_int : int -> encoding option
val encoding_name : encoding -> string

val hash_page : bytes -> int64
(** Content hash used by the page stores (FNV-1a 64). *)

(** Content store: hash of a full page body -> the body (shared, never
    copied). A [t] keeps one per role; the replayer keeps a standalone one
    to resolve hash references while re-applying a recording. *)
module Store : sig
  type s

  val create : unit -> s
  val learn : s -> bytes -> unit
  val find : s -> int64 -> bytes option
end

type t

val create : ?shared:Store.s -> Mode.config -> t
(** [?shared] is a fleet-wide content store the recording service shares
    among all sessions recorded under the same cache key: a page body some
    earlier same-key session already shipped is charged to the wire as an
    8-byte hash reference ([cross = true] on its record) instead of its full
    encoding. Sharing affects wire accounting and metrics only — the logged
    record keeps the full self-contained encoding, so recordings are
    byte-identical with or without a shared store. *)

val register_region : t -> region -> unit
val regions : t -> region list
val region_containing : t -> va:int64 -> region option

val register_pt_root : t -> root_pa:int64 -> unit
(** Called when the shim observes an AS_TRANSTAB programming. Both page
    table formats share the table descriptors the walk reads. *)

val meta_pfns : t -> int64 list
(** The metastate page set the last {!sync_meta} scanned, sorted ([[]]
    before the first sync). *)

val protect_meta : t -> Grt_gpu.Mem.t -> unit
(** Add {!meta_pfns} to [mem]'s protected set (continuous validation, §5),
    without building the list. *)

type page_record = {
  pfn : int64;
  data : bytes;  (** full page contents *)
  enc : encoding;
  body : bytes;  (** wire form of the contents under [enc] *)
  wire : int;  (** bytes charged to the link for this record, header included *)
  cross : bool;
      (** the shared cross-session store already held this content, so [wire]
          is a hash reference's size; [enc]/[body] (and the logged record)
          still carry the full encoding *)
}

val tagged_record_wire : pfn:int64 -> body:bytes -> int
(** Bytes charged to the wire for one tagged page record — exactly its
    serialized size: varint pfn + encoding-tag byte + varint length +
    body. *)

(** A payload's logged form: what a recording's memory-load entry carries.
    Tagged records are [(pfn, encoding, wire body)], decoded in log order
    against the replayer's content store — a hash reference always resolves
    to a body carried in full by an earlier record. Untagged records are
    [(pfn, Enc_raw, full contents)]. Declared before {!sync_payload}, whose
    same-named fields stay the default for unannotated uses. *)
type logged = { tagged : bool; records : (int64 * encoding * bytes) list }

type sync_payload = {
  records : page_record list;
  tagged : bool;
      (** true when the wire carries per-record encoding tags
          ([Mode.memsync_tagged]); false is the historical full-page format *)
  wire_bytes : int;
      (** bytes charged to the link, in every format: the sum of the records'
          [wire]. Untagged records cost their body plus a fixed pfn + length
          header, or the full page plus that header when
          [Mode.compress_dumps] is off. *)
  raw_bytes : int;  (** bytes before delta + compression *)
  visited : int;  (** meta pages examined (the rest kept their stamp) *)
  total : int;  (** meta pages in scope *)
}

val logged : sync_payload -> logged
(** The payload's records in their logged form, in record order. *)

val sync_meta : t -> Grt_gpu.Mem.t -> sync_payload
(** Sender: diff the metastate against the baseline, advance the baseline,
    and return what must be shipped. *)

(** Why a page record does not decode. *)
type decode_error =
  | Malformed of string
      (** the body is not a full page, a delta span lies outside the base
          page, the range coding is corrupt, or a hash reference is not 8
          bytes *)
  | Unknown_hash of int64  (** a hash reference the store never learned *)
  | Needs_memory  (** a delta record decoded without the memory it patches *)

val decode_error_message : decode_error -> string

val decode_record :
  Store.s -> Grt_gpu.Mem.t option -> int64 -> encoding -> bytes -> (bytes, decode_error) result
(** The page-record decoder: [decode_record store mem pfn enc body] is the
    full page the record describes. Delta records patch the page [mem]
    holds at [pfn] (a never-materialized page reads as zeros) and need
    [Some mem]; a hash reference resolves against [store]. Reads but never
    changes [mem] or [store], and never raises. *)

val install : Store.s -> Grt_gpu.Mem.t -> logged -> ((int64 * bytes) list, decode_error) result
(** Install a logged payload into [mem] in record order, returning the
    installed [(pfn, page)]s. Every record is decoded through
    {!decode_record} into a page of its own; tagged records are also
    learned by [store], so a later reference — in this payload or a later
    one — resolves. Stops at the first record that does not decode. *)

val receive : t -> Grt_gpu.Mem.t -> logged -> (int64 * bytes) list
(** Receiver: {!install} through [t]'s receiver store, record by record,
    teaching [t]'s baseline that the peer holds each installed page, so it
    is not echoed back. A page installed here whose stamp has not moved by
    the next {!sync_meta} still counts in its [visited] but is neither
    looked up nor compared: it holds its baseline. Deliberately does {e not}
    feed [t]'s shipped-content store: hash references must only point at
    content this sender shipped itself, or a recording's references could
    dangle on replay. Raises [Failure] on a record that does not decode —
    the payloads it sees come from the peer endpoint of the same session
    or from its own log. *)

val receive_payload : t -> Grt_gpu.Mem.t -> sync_payload -> unit
(** {!receive} of [logged p], read straight from the sender's records: the
    live exchanges of a session. A coded body is decoded over the live
    page, which must come out equal to the record's [data] (or this raises
    [Failure]); the receiver then keeps that body, as it keeps an
    untagged record's full page. *)

val note_shipped : t -> int64 -> bytes -> unit
(** Re-teach the sender state while replaying a validated log prefix
    (§4.2): baseline plus, under the tagged format, the shipped-content
    store — as if this endpoint had shipped the page live. *)

val naive_down_bytes : t -> Grt_gpu.Mem.t -> chain_va:int64 -> int
(** Model-scale bytes Naive mode must push to the client before the job at
    [chain_va]: every referenced data buffer the client does not hold yet
    (weights and staged inputs ship once; activations the GPU produced are
    already client-side). *)

val naive_up_bytes : t -> Grt_gpu.Mem.t -> chain_va:int64 -> int
(** Model-scale bytes Naive mode pulls back after the job: the output
    buffers the GPU wrote. *)
