(** Authenticated, encrypted cloud/client channel.

    Wraps {!Grt_net.Frame} messages with {!Grt_tee.Crypto.seal}. Establishment
    performs the attested handshake: the TEE sends a nonce, verifies the
    VM's quote, then both sides derive the session key. The handshake's
    round trips and the per-message overhead are charged to the link —
    the "security overhead" of §7.1. *)

type t

val establish :
  link:Grt_net.Link.t ->
  verification_key:Grt_tee.Crypto.key ->
  vm_signing_key:Grt_tee.Crypto.key ->
  vm_measurement:Grt_tee.Attestation.measurement ->
  expected:Grt_tee.Attestation.measurement ->
  nonce:int64 ->
  (t, string) result
(** Simulates both endpoints of the handshake (2 RTTs on [link]). *)

val session_key : t -> Grt_tee.Crypto.key

val seal_message : t -> Grt_net.Frame.kind -> bytes -> bytes
(** Frame, then seal. Each call uses a fresh nonce. *)

val open_message : t -> bytes -> (Grt_net.Frame.kind * bytes, string) result

val wire_overhead : int
(** Bytes added to every payload by framing + sealing. *)
