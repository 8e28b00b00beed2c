(** The in-TEE replayer (§2.3, §3.2).

    A few hundred lines with no GPU-stack dependency: it verifies a signed
    recording, locks the GPU to the secure world, loads the recorded
    metastate pages, injects fresh input and model parameters into the
    recorded data slots, and feeds the recorded register stimuli to the GPU
    — verifying that the GPU's responses match the recording (except
    registers marked nondeterministic). The GPU executes the same jobs on
    the new data and the output is read back from the recorded output slot.

    Rejects recordings that fail signature verification or that were
    recorded on a different GPU SKU. *)

exception Rejected of string

type divergence_kind =
  | Value_mismatch  (** a verified register read returned the wrong value *)
  | Poll_timeout
      (** a recorded poll never satisfied its condition within the recorded
          iteration budget; [expected] carries the poll mask, [got] is -1 *)
  | Irq_mismatch
      (** the wrong interrupt line fired, or none did ([got] = -1) *)

val divergence_kind_name : divergence_kind -> string

exception
  Divergence of { kind : divergence_kind; index : int; reg : int; expected : int64; got : int64 }
(** The GPU's behaviour departed from the recording — replay aborts rather
    than continue on corrupt state. [kind] distinguishes a genuine value
    mismatch from a poll that timed out or a missing/wrong interrupt. *)

type result = {
  output : float array;
  delay_s : float;  (** end-to-end replay delay *)
  entries_applied : int;
  reads_verified : int;
  reads_skipped_nondet : int;
  energy_j : float option;
}

val replay_segments :
  gpushim:Gpushim.t ->
  signing_key:Crypto.key ->
  blobs:bytes list ->
  input:float array ->
  params:(string * float array) list ->
  ?energy:Grt_sim.Energy.t ->
  unit ->
  result
(** The interpreted replayer, for one recording ([~blobs:[blob]]) or a
    sequence of per-layer segments (Figure 2): each blob is verified
    independently, the fresh input goes into the first segment's input
    slot, parameters — keyed by the recordings' parameter-slot names (the
    weight buffer names of the plan) — into whichever segment declares
    them, intermediate activations flow through GPU memory, and the output
    comes from the last segment. Missing slots stay zero; unknown names
    raise {!Rejected}, as does a page record that does not decode. The GPU
    is reset once before and once after the whole sequence. *)

val replay_compiled :
  gpushim:Gpushim.t ->
  prog:Replay_prog.t ->
  input:float array ->
  params:(string * float array) list ->
  ?energy:Grt_sim.Energy.t ->
  unit ->
  result
(** The fast path: execute a compiled replay program (see {!Replay_prog}).
    Compile once, call this per replay — parse, wire-record decode and (for
    v2 blobs) chunk-hash verification are not repeated; each chunk's hash
    is checked just before its first execution (streaming), polls reuse the
    first-success iteration learned by the previous execution, and decoded
    memory images are reused. Semantics — outputs, verification, divergence
    detection, virtual-clock cost per applied entry — match
    {!replay_segments} exactly; the savings are host-side. The GPU is reset
    and released even when a {!Divergence} (or any other exception) aborts
    the session, as with {!replay_segments}. *)
