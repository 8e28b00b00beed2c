type measurement = { kernel : string; gpu_stack : string; devicetree : string }

let measure m =
  Grt_util.Hashing.fnv1a_string (Printf.sprintf "%s\x00%s\x00%s" m.kernel m.gpu_stack m.devicetree)

type quote = { digest : int64; nonce : int64; signature : int64 }

let signed_payload digest nonce =
  let buf = Grt_util.Byte_buf.create ~capacity:16 () in
  Grt_util.Byte_buf.add_i64 buf digest;
  Grt_util.Byte_buf.add_i64 buf nonce;
  Grt_util.Byte_buf.contents buf

let make_quote ~signing_key m ~nonce =
  let digest = measure m in
  { digest; nonce; signature = Crypto.mac ~key:signing_key (signed_payload digest nonce) }

let quote_measurement q = q.digest

let verify ~verification_key ~expected ~nonce q =
  if not (Crypto.verify ~key:verification_key (signed_payload q.digest q.nonce) q.signature) then
    Error "attestation: bad signature"
  else if not (Int64.equal q.nonce nonce) then Error "attestation: nonce mismatch (replay?)"
  else if not (Int64.equal q.digest (measure expected)) then
    Error "attestation: unexpected measurement"
  else Ok ()

let tamper q = { q with signature = Int64.logxor q.signature 0x4L }

(* ---- replay attestation (SAGE-style execution tokens) ---- *)

type replay_token = {
  rt_root : int64;
  rt_gpu_id : int64;
  rt_entries : int;
  rt_nonce : int64;
  rt_signature : int64;
}

let replay_token_payload ~root ~gpu_id ~entries ~nonce =
  let buf = Grt_util.Byte_buf.create ~capacity:32 () in
  Grt_util.Byte_buf.add_i64 buf root;
  Grt_util.Byte_buf.add_i64 buf gpu_id;
  Grt_util.Byte_buf.add_varint buf entries;
  Grt_util.Byte_buf.add_i64 buf nonce;
  Grt_util.Byte_buf.contents buf

let make_replay_token ~signing_key ~root ~gpu_id ~entries ~nonce =
  {
    rt_root = root;
    rt_gpu_id = gpu_id;
    rt_entries = entries;
    rt_nonce = nonce;
    rt_signature = Crypto.mac ~key:signing_key (replay_token_payload ~root ~gpu_id ~entries ~nonce);
  }

let verify_replay_token ~verification_key ~root ~gpu_id ~nonce t =
  if
    not
      (Crypto.verify ~key:verification_key
         (replay_token_payload ~root:t.rt_root ~gpu_id:t.rt_gpu_id ~entries:t.rt_entries
            ~nonce:t.rt_nonce)
         t.rt_signature)
  then Error "replay token: bad signature"
  else if not (Int64.equal t.rt_nonce nonce) then Error "replay token: nonce mismatch (replay?)"
  else if not (Int64.equal t.rt_root root) then
    Error "replay token: attests a different recording"
  else if not (Int64.equal t.rt_gpu_id gpu_id) then Error "replay token: attests a different GPU"
  else Ok ()

let tamper_replay_token t = { t with rt_signature = Int64.logxor t.rt_signature 0x10L }
