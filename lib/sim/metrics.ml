type key =
  (* link *)
  | Net_msgs
  | Net_bytes_tx
  | Net_bytes_rx
  | Net_blocking_rtts
  | Net_async_sends
  | Net_stall_waits
  | Net_retransmits
  | Net_drops
  | Net_corrupt_drops
  | Net_dups
  | Net_link_downs
  | Net_degraded_entries
  | Net_degraded_exits
  | Net_window_stalls
  | Net_gbn_retransmits
  (* recorder-side register traffic *)
  | Reg_reads
  | Reg_writes
  (* commit pipeline *)
  | Commits_total
  | Commits_speculated
  | Commits_sync
  | Commits_accesses
  (* speculation *)
  | Spec_mispredicts
  | Spec_rejected_nondet
  | Spec_epoch_stalls
  | Spec_dep_stalls
  | Spec_degraded_suppressed
  | Spec_inflight_hw
  | Spec_cross_hits
  (* polling *)
  | Poll_instances
  | Poll_offloaded
  | Poll_iters
  | Irq_waits
  (* memory synchronization *)
  | Sync_down_events
  | Sync_down_wire_bytes
  | Sync_down_raw_bytes
  | Sync_up_events
  | Sync_up_wire_bytes
  | Sync_up_raw_bytes
  | Sync_pages_visited
  | Sync_pages_meta
  | Sync_enc_raw
  | Sync_enc_raw_rc
  | Sync_enc_delta
  | Sync_enc_delta_rc
  | Sync_enc_hash_ref
  | Sync_cross_hits
  | Sync_cross_saved_bytes
  (* fault injection + recovery *)
  | Fault_injected
  | Recovery_entries
  | Recovery_pages
  | Recovery_link_downs
  (* client-side shim *)
  | Client_reg_reads
  | Client_reg_writes
  | Client_polls
  | Client_irq_waits
  | Client_uploads
  | Client_downloads
  (* recording service (fleet plane) *)
  | Svc_sessions
  | Svc_recordings
  | Svc_cache_hits
  | Svc_cache_misses
  | Svc_coalesced
  | Svc_failures
  | Svc_evictions
  | Svc_promotions

let name = function
  | Net_msgs -> "net.msgs"
  | Net_bytes_tx -> "net.bytes_tx"
  | Net_bytes_rx -> "net.bytes_rx"
  | Net_blocking_rtts -> "net.blocking_rtts"
  | Net_async_sends -> "net.async_sends"
  | Net_stall_waits -> "net.stall_waits"
  | Net_retransmits -> "net.retransmits"
  | Net_drops -> "net.drops"
  | Net_corrupt_drops -> "net.corrupt_drops"
  | Net_dups -> "net.dups"
  | Net_link_downs -> "net.link_downs"
  | Net_degraded_entries -> "net.degraded_entries"
  | Net_degraded_exits -> "net.degraded_exits"
  | Net_window_stalls -> "net.window_stalls"
  | Net_gbn_retransmits -> "net.gbn_retransmits"
  | Reg_reads -> "reg.reads"
  | Reg_writes -> "reg.writes"
  | Commits_total -> "commits.total"
  | Commits_speculated -> "commits.speculated"
  | Commits_sync -> "commits.sync"
  | Commits_accesses -> "commits.accesses"
  | Spec_mispredicts -> "spec.mispredicts"
  | Spec_rejected_nondet -> "spec.rejected_nondet"
  | Spec_epoch_stalls -> "spec.epoch_stalls"
  | Spec_dep_stalls -> "spec.dep_stalls"
  | Spec_degraded_suppressed -> "spec.degraded_suppressed"
  | Spec_inflight_hw -> "spec.inflight_hw"
  | Spec_cross_hits -> "spec.history_cross_hits"
  | Poll_instances -> "poll.instances"
  | Poll_offloaded -> "poll.offloaded"
  | Poll_iters -> "poll.iters"
  | Irq_waits -> "irq.waits"
  | Sync_down_events -> "sync.down_events"
  | Sync_down_wire_bytes -> "sync.down_wire_bytes"
  | Sync_down_raw_bytes -> "sync.down_raw_bytes"
  | Sync_up_events -> "sync.up_events"
  | Sync_up_wire_bytes -> "sync.up_wire_bytes"
  | Sync_up_raw_bytes -> "sync.up_raw_bytes"
  | Sync_pages_visited -> "sync.pages_visited"
  | Sync_pages_meta -> "sync.pages_meta"
  | Sync_enc_raw -> "sync.enc_raw"
  | Sync_enc_raw_rc -> "sync.enc_raw_rc"
  | Sync_enc_delta -> "sync.enc_delta"
  | Sync_enc_delta_rc -> "sync.enc_delta_rc"
  | Sync_enc_hash_ref -> "sync.enc_hash_ref"
  | Sync_cross_hits -> "sync.cross_hits"
  | Sync_cross_saved_bytes -> "sync.cross_saved_bytes"
  | Fault_injected -> "fault.injected"
  | Recovery_entries -> "recovery.entries"
  | Recovery_pages -> "recovery.pages"
  | Recovery_link_downs -> "recovery.link_downs"
  | Client_reg_reads -> "client.reg_reads"
  | Client_reg_writes -> "client.reg_writes"
  | Client_polls -> "client.polls"
  | Client_irq_waits -> "client.irq_waits"
  | Client_uploads -> "client.uploads"
  | Client_downloads -> "client.downloads"
  | Svc_sessions -> "svc.sessions"
  | Svc_recordings -> "svc.recordings"
  | Svc_cache_hits -> "svc.cache_hits"
  | Svc_cache_misses -> "svc.cache_misses"
  | Svc_coalesced -> "svc.coalesced"
  | Svc_failures -> "svc.failures"
  | Svc_evictions -> "svc.evictions"
  | Svc_promotions -> "svc.promotions"

let all =
  [
    Net_msgs; Net_bytes_tx; Net_bytes_rx; Net_blocking_rtts; Net_async_sends; Net_stall_waits;
    Net_retransmits; Net_drops; Net_corrupt_drops; Net_dups; Net_link_downs;
    Net_degraded_entries; Net_degraded_exits; Net_window_stalls; Net_gbn_retransmits;
    Reg_reads; Reg_writes; Commits_total;
    Commits_speculated; Commits_sync; Commits_accesses; Spec_mispredicts; Spec_rejected_nondet;
    Spec_epoch_stalls; Spec_dep_stalls; Spec_degraded_suppressed; Spec_inflight_hw;
    Spec_cross_hits;
    Poll_instances;
    Poll_offloaded; Poll_iters; Irq_waits; Sync_down_events; Sync_down_wire_bytes;
    Sync_down_raw_bytes; Sync_up_events; Sync_up_wire_bytes; Sync_up_raw_bytes;
    Sync_pages_visited; Sync_pages_meta; Sync_enc_raw; Sync_enc_raw_rc; Sync_enc_delta;
    Sync_enc_delta_rc; Sync_enc_hash_ref; Sync_cross_hits; Sync_cross_saved_bytes;
    Fault_injected;
    Recovery_entries; Recovery_pages; Recovery_link_downs; Client_reg_reads; Client_reg_writes;
    Client_polls; Client_irq_waits; Client_uploads; Client_downloads;
    Svc_sessions; Svc_recordings; Svc_cache_hits; Svc_cache_misses; Svc_coalesced; Svc_failures;
    Svc_evictions; Svc_promotions;
  ]

let of_name s = List.find_opt (fun k -> String.equal (name k) s) all

let n_keys = List.length all

(* Dense ordinal of a key, in declaration order; checked against [all] when
   the module loads. *)
let index = function
  | Net_msgs -> 0
  | Net_bytes_tx -> 1
  | Net_bytes_rx -> 2
  | Net_blocking_rtts -> 3
  | Net_async_sends -> 4
  | Net_stall_waits -> 5
  | Net_retransmits -> 6
  | Net_drops -> 7
  | Net_corrupt_drops -> 8
  | Net_dups -> 9
  | Net_link_downs -> 10
  | Net_degraded_entries -> 11
  | Net_degraded_exits -> 12
  | Net_window_stalls -> 13
  | Net_gbn_retransmits -> 14
  | Reg_reads -> 15
  | Reg_writes -> 16
  | Commits_total -> 17
  | Commits_speculated -> 18
  | Commits_sync -> 19
  | Commits_accesses -> 20
  | Spec_mispredicts -> 21
  | Spec_rejected_nondet -> 22
  | Spec_epoch_stalls -> 23
  | Spec_dep_stalls -> 24
  | Spec_degraded_suppressed -> 25
  | Spec_inflight_hw -> 26
  | Spec_cross_hits -> 27
  | Poll_instances -> 28
  | Poll_offloaded -> 29
  | Poll_iters -> 30
  | Irq_waits -> 31
  | Sync_down_events -> 32
  | Sync_down_wire_bytes -> 33
  | Sync_down_raw_bytes -> 34
  | Sync_up_events -> 35
  | Sync_up_wire_bytes -> 36
  | Sync_up_raw_bytes -> 37
  | Sync_pages_visited -> 38
  | Sync_pages_meta -> 39
  | Sync_enc_raw -> 40
  | Sync_enc_raw_rc -> 41
  | Sync_enc_delta -> 42
  | Sync_enc_delta_rc -> 43
  | Sync_enc_hash_ref -> 44
  | Sync_cross_hits -> 45
  | Sync_cross_saved_bytes -> 46
  | Fault_injected -> 47
  | Recovery_entries -> 48
  | Recovery_pages -> 49
  | Recovery_link_downs -> 50
  | Client_reg_reads -> 51
  | Client_reg_writes -> 52
  | Client_polls -> 53
  | Client_irq_waits -> 54
  | Client_uploads -> 55
  | Client_downloads -> 56
  | Svc_sessions -> 57
  | Svc_recordings -> 58
  | Svc_cache_hits -> 59
  | Svc_cache_misses -> 60
  | Svc_coalesced -> 61
  | Svc_failures -> 62
  | Svc_evictions -> 63
  | Svc_promotions -> 64

let () = List.iteri (fun i k -> assert (index k = i)) all

(* The store: one int cell per key at [index], plus a bitmap of the keys
   ever bumped. A bump is an array update and a byte update, and allocates
   nothing. The bitmap keeps "never bumped" apart from "bumped by 0": only
   touched keys appear in [to_alist] and [pp]. *)
type t = { cells : int array; touched : Bytes.t }

let create () = { cells = Array.make n_keys 0; touched = Bytes.make ((n_keys + 7) / 8) '\000' }

let is_touched t i = Char.code (Bytes.unsafe_get t.touched (i lsr 3)) land (1 lsl (i land 7)) <> 0

let touch t i =
  let b = i lsr 3 in
  Bytes.unsafe_set t.touched b
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.touched b) lor (1 lsl (i land 7))))

let add t k v =
  let i = index k in
  Array.unsafe_set t.cells i (Array.unsafe_get t.cells i + v);
  touch t i

let add64 t k v = add t k (Int64.to_int v)
let incr t k = add t k 1
let get_int t k = Array.unsafe_get t.cells (index k)
let get t k = Int64.of_int (get_int t k)

let merge_into ~dst ~src =
  for i = 0 to n_keys - 1 do
    if is_touched src i then begin
      dst.cells.(i) <- dst.cells.(i) + src.cells.(i);
      touch dst i
    end
  done

let by_name = List.sort (fun a b -> String.compare (name a) (name b)) all

let to_alist t =
  List.filter_map
    (fun k ->
      let i = index k in
      if is_touched t i then Some (name k, t.cells.(i)) else None)
    by_name

let pp ppf t = List.iter (fun (k, v) -> Format.fprintf ppf "%-40s %d@\n" k v) (to_alist t)
