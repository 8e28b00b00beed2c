(** Message framing for the cloud/client channel: a type tag, a sequence
    number, a length and a CRC-32 trailer. The secure-channel layer in
    [Grt_tee] wraps frames with authentication; this layer catches accidental
    corruption and lets the link detect retransmitted duplicates. *)

type kind =
  | Commit_request
  | Commit_response
  | Poll_offload
  | Poll_result
  | Mem_sync
  | Mem_sync_ack
  | Irq_notify
  | Recording_download
  | Control
  | Ack  (** link-level cumulative acknowledgement of a sequence number *)
  | Nak
      (** go-back-N negative acknowledgement: the receiver saw a sequence
          hole at [seq]; the sender resends from there (windowed links) *)

val kind_to_int : kind -> int
val kind_of_int : int -> kind option

type msg = { kind : kind; seq : int; payload : bytes }

val seal : ?seq:int -> kind -> bytes -> bytes
(** [seal ?seq kind payload] builds a framed message. [seq] defaults to 0
    and is truncated to 32 bits. *)

val ack : seq:int -> bytes
(** An empty [Ack] frame carrying [seq]. *)

val open_ : bytes -> (kind * bytes, string) result
(** [open_ frame] validates magic, kind, length and CRC and returns the
    payload. Any input gets [Ok] or [Error], never an exception; bytes after
    the trailer are an [Error], so an [Ok] frame is exactly the {!seal} of
    what it returns. Allocation is bounded by a small multiple of the
    input's size, whatever its length field says. *)

val open_full : bytes -> (msg, string) result
(** Like [open_] but also exposes the sequence number. The CRC covers the
    header fields after the magic as well as the payload, so a damaged
    sequence number is rejected too. *)

val overhead_bytes : int
(** Framing overhead added to every message. *)
