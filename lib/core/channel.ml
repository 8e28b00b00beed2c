module Attestation = Grt_tee.Attestation
module Crypto = Grt_tee.Crypto

type t = { key : Crypto.key; mutable nonce : int64 }

let establish ~link ~verification_key ~vm_signing_key ~vm_measurement ~expected ~nonce =
  (* RTT 1: hello + nonce out, quote back. *)
  Grt_net.Link.round_trip link ~send_bytes:64 ~recv_bytes:256;
  let quote = Attestation.make_quote ~signing_key:vm_signing_key vm_measurement ~nonce in
  match Attestation.verify ~verification_key ~expected ~nonce quote with
  | Error _ as e -> e
  | Ok () ->
    (* RTT 2: key agreement. *)
    Grt_net.Link.round_trip link ~send_bytes:128 ~recv_bytes:128;
    let key =
      Crypto.derive
        (Printf.sprintf "session-%Lx" nonce)
        (Printf.sprintf "m=%Lx" (Attestation.quote_measurement quote))
    in
    Ok { key; nonce = 1L }

let session_key t = t.key

let wire_overhead = Grt_net.Frame.overhead_bytes + Crypto.sealed_overhead

let seal_message t kind payload =
  t.nonce <- Int64.add t.nonce 1L;
  (* The channel nonce doubles as the frame sequence number, so the link's
     ARQ can spot retransmitted duplicates without extra state. *)
  let framed = Grt_net.Frame.seal ~seq:(Int64.to_int t.nonce land 0xFFFFFFFF) kind payload in
  Crypto.seal ~key:t.key ~nonce:t.nonce framed

let open_message t blob =
  match Crypto.open_ ~key:t.key blob with
  | Error _ as e -> e
  | Ok framed -> Grt_net.Frame.open_ framed
