(** Debug helpers for rendering binary data and sizes. *)

val pp_bytes : Format.formatter -> bytes -> unit
(** Classic 16-bytes-per-line hex + ASCII dump. *)

val size_to_string : int -> string
(** Human-readable byte size, e.g. "4.2 MB". *)
