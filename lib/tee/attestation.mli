(** Remote attestation of the cloud recording VM.

    Before a record run, the client TEE challenges the cloud VM with a
    nonce; the VM responds with a quote over its measurement (kernel + GPU
    stack image) signed by a key the verifier trusts. Only the control flow
    matters for the reproduction: good quotes verify, tampered measurements
    or replayed nonces fail (§7.1). *)

type measurement = { kernel : string; gpu_stack : string; devicetree : string }

val measure : measurement -> int64

type quote

val make_quote : signing_key:Crypto.key -> measurement -> nonce:int64 -> quote
val quote_measurement : quote -> int64

val verify :
  verification_key:Crypto.key ->
  expected:measurement ->
  nonce:int64 ->
  quote ->
  (unit, string) result

val tamper : quote -> quote
(** Flip a bit in the signature — for negative tests. *)

(** {2 Replay attestation}

    After a compiled replay, the client TEE can emit a token binding the
    recording's Merkle root (the identity of the exact entry log that
    ran), the GPU SKU it ran on, and the number of entries applied — a
    verifier holding the expected root learns {e which} GPU execution
    happened, in the style of SAGE's attested execution (PAPERS.md). *)

type replay_token = {
  rt_root : int64;  (** Merkle root over the recording's chunk hashes *)
  rt_gpu_id : int64;
  rt_entries : int;  (** log entries applied by the replay *)
  rt_nonce : int64;
  rt_signature : int64;
}

val make_replay_token :
  signing_key:Crypto.key -> root:int64 -> gpu_id:int64 -> entries:int -> nonce:int64 -> replay_token

val verify_replay_token :
  verification_key:Crypto.key ->
  root:int64 ->
  gpu_id:int64 ->
  nonce:int64 ->
  replay_token ->
  (unit, string) result

val tamper_replay_token : replay_token -> replay_token
(** Flip a bit in the signature — for negative tests. *)
