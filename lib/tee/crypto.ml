type key = string

let derive k label = Printf.sprintf "%s/%Lx" label (Grt_util.Hashing.fnv1a_string (k ^ "|" ^ label))

let mac ?len ~key data = Grt_util.Hashing.hmac ?len ~key data

let verify ~key data tag = Int64.equal (mac ~key data) tag

let keystream ~key ~nonce n =
  let rng =
    Grt_util.Rng.create
      ~seed:(Grt_util.Hashing.combine (Grt_util.Hashing.fnv1a_string key) nonce)
  in
  Grt_util.Rng.bytes rng n

let xor_into data ks =
  let out = Bytes.copy data in
  for i = 0 to Bytes.length out - 1 do
    Bytes.unsafe_set out i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get out i) lxor Char.code (Bytes.unsafe_get ks i)))
  done;
  out

let sealed_overhead = 16

let seal ~key ~nonce data =
  let enc_key = derive key "enc" and mac_key = derive key "mac" in
  let ct = xor_into data (keystream ~key:enc_key ~nonce (Bytes.length data)) in
  let buf = Grt_util.Byte_buf.create ~capacity:(Bytes.length ct + sealed_overhead) () in
  Grt_util.Byte_buf.add_bytes buf ct;
  Grt_util.Byte_buf.add_i64 buf (mac ~key:mac_key ct);
  Grt_util.Byte_buf.add_i64 buf nonce;
  Grt_util.Byte_buf.contents buf

let open_ ~key blob =
  let n = Bytes.length blob in
  if n < sealed_overhead then Error "sealed message too short"
  else begin
    let ct = Bytes.sub blob 0 (n - sealed_overhead) in
    let tag = Bytes.get_int64_le blob (n - 16) in
    let nonce = Bytes.get_int64_le blob (n - 8) in
    let enc_key = derive key "enc" and mac_key = derive key "mac" in
    if not (verify ~key:mac_key ct tag) then Error "MAC verification failed"
    else Ok (xor_into ct (keystream ~key:enc_key ~nonce (Bytes.length ct)))
  end
