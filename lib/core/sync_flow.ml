open Shim_engine
module Link = Grt_net.Link
module Metrics = Grt_sim.Metrics

let chain_va t = Int64.logor t.head.lo (Int64.shift_left t.head.hi 32)

let enc_key = function
  | Memsync.Enc_raw -> Metrics.Sync_enc_raw
  | Memsync.Enc_raw_rc -> Metrics.Sync_enc_raw_rc
  | Memsync.Enc_delta -> Metrics.Sync_enc_delta
  | Memsync.Enc_delta_rc -> Metrics.Sync_enc_delta_rc
  | Memsync.Enc_hash_ref -> Metrics.Sync_enc_hash_ref

let payload_metrics t (payload : Memsync.sync_payload) =
  count t Metrics.Sync_pages_visited payload.Memsync.visited;
  count t Metrics.Sync_pages_meta payload.Memsync.total;
  List.iter
    (fun (r : Memsync.page_record) ->
      count t (enc_key r.Memsync.enc) 1;
      (* cross-session dedup hits: counted only when they occur, so solo
         sessions never materialize these counter cells *)
      if r.Memsync.cross then begin
        count t Metrics.Sync_cross_hits 1;
        count t Metrics.Sync_cross_saved_bytes
          (Memsync.tagged_record_wire ~pfn:r.Memsync.pfn ~body:r.Memsync.body - r.Memsync.wire)
      end;
      Metrics.observe t.metrics Hist.Sync_page_wire r.Memsync.wire)
    payload.Memsync.records

let down t =
  Tracer.span_opt t.tracer ~cat:Tracer.Memsync_down ~name:"sync_down" @@ fun () ->
  let payload = Memsync.sync_meta t.downlink t.cloud_mem in
  let data_bytes =
    if Mode.meta_only_sync t.cfg.Mode.mode then 0
    else Memsync.naive_down_bytes t.downlink t.cloud_mem ~chain_va:(chain_va t)
  in
  let wire = payload.Memsync.wire_bytes + data_bytes + t.wire_overhead in
  count t Metrics.Sync_down_events 1;
  count t Metrics.Sync_down_wire_bytes wire;
  count t Metrics.Sync_down_raw_bytes (payload.Memsync.raw_bytes + data_bytes);
  payload_metrics t payload;
  Metrics.observe t.metrics Hist.Sync_down_wire wire;
  Link.one_way_to_client t.link ~bytes:wire;
  Gpushim.load_payload t.gpushim payload;
  if payload.Memsync.records <> [] then log_push t.log (Recording.Mem_load (Memsync.logged payload));
  (* Continuous validation (§5): the dumped metastate now belongs to the
     GPU; unmap it from the CPU until the job interrupt returns it. *)
  if t.cfg.Mode.continuous_validation then
    Memsync.protect_meta t.downlink t.cloud_mem

let up t =
  Tracer.span_opt t.tracer ~cat:Tracer.Memsync_up ~name:"sync_up" @@ fun () ->
  if t.cfg.Mode.continuous_validation then Grt_gpu.Mem.unprotect_all t.cloud_mem;
  let payload = Gpushim.upload_meta t.gpushim in
  let data_bytes =
    if Mode.meta_only_sync t.cfg.Mode.mode then 0
    else Memsync.naive_up_bytes t.downlink t.cloud_mem ~chain_va:(chain_va t)
  in
  let wire = payload.Memsync.wire_bytes + data_bytes + t.wire_overhead in
  count t Metrics.Sync_up_events 1;
  count t Metrics.Sync_up_wire_bytes wire;
  count t Metrics.Sync_up_raw_bytes (payload.Memsync.raw_bytes + data_bytes);
  payload_metrics t payload;
  Metrics.observe t.metrics Hist.Sync_up_wire wire;
  Link.one_way_from_client t.link ~bytes:wire;
  (* Install the client's changes (job status words); the downlink learns
     them, so they are not shipped back. *)
  Memsync.receive_payload t.downlink t.cloud_mem payload
