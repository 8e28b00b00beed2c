(** Memory-synchronization flow over the recorder engine state (§5).

    The cloud keeps the GPU {e metastate} (page tables, shaders, command
    streams) mirrored on the client: {!down} ships the dirty metastate
    pages right before each job-start register write, {!up} brings the
    client's GPU-written words (job statuses) back with each forwarded
    interrupt. Both directions charge the link for the wire form (delta +
    optional compression per [Mode.compress_dumps]; whole-image bytes when
    the mode forgoes meta-only sync) and account [sync.*] metrics; the
    downlink dump is also appended to the interaction log as a [Mem_load]
    entry so recovery and replay can reproduce it. *)

val enc_key : Memsync.encoding -> Grt_sim.Metrics.key
(** The [sync.enc_*] metric that counts pages shipped in an encoding. *)

val down : Shim_engine.t -> unit
(** Cloud→client metastate dump. Under continuous validation the dumped
    pages are CPU-protected until {!up} returns them (§5). *)

val up : Shim_engine.t -> unit
(** Client→cloud dump of GPU-written status words; installs the payload
    into cloud memory and teaches the downlink baseline so the same pages
    are not shipped back down. *)
