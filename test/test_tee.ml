(* Tests for the TEE substrate: crypto seal/open, attestation, world
   isolation (TZASC), the attested channel and the replay-path modules
   [Grt] re-exports. *)

module Crypto = Grt_tee.Crypto
module Attestation = Grt_tee.Attestation
module Worlds = Grt_tee.Worlds
module Channel = Grt.Channel
module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Frame = Grt_net.Frame

let check = Alcotest.check

(* ---- crypto ---- *)

let crypto_seal_open () =
  let data = Bytes.of_string "register access batch" in
  let sealed = Crypto.seal ~key:"k" ~nonce:42L data in
  match Crypto.open_ ~key:"k" sealed with
  | Ok got -> check Alcotest.bytes "roundtrip" data got
  | Error e -> Alcotest.fail e

let crypto_wrong_key_fails () =
  let sealed = Crypto.seal ~key:"k1" ~nonce:1L (Bytes.of_string "secret") in
  match Crypto.open_ ~key:"k2" sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let crypto_tamper_detected () =
  let sealed = Crypto.seal ~key:"k" ~nonce:1L (Bytes.of_string "payload bytes") in
  Bytes.set sealed 2 (Char.chr (Char.code (Bytes.get sealed 2) lxor 1));
  match Crypto.open_ ~key:"k" sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tamper not detected"

let crypto_ciphertext_hides_plaintext () =
  let data = Bytes.of_string "aaaaaaaaaaaaaaaaaaaaaaaa" in
  let sealed = Crypto.seal ~key:"k" ~nonce:7L data in
  let ct = Bytes.sub sealed 0 (Bytes.length data) in
  check Alcotest.bool "not plaintext" false (Bytes.equal ct data)

let crypto_nonce_varies_ciphertext () =
  let data = Bytes.of_string "same plaintext" in
  let a = Crypto.seal ~key:"k" ~nonce:1L data in
  let b = Crypto.seal ~key:"k" ~nonce:2L data in
  check Alcotest.bool "distinct ciphertexts" false (Bytes.equal a b)

let crypto_mac_verify () =
  let data = Bytes.of_string "x" in
  let tag = Crypto.mac ~key:"k" data in
  check Alcotest.bool "verifies" true (Crypto.verify ~key:"k" data tag);
  check Alcotest.bool "wrong key" false (Crypto.verify ~key:"k2" data tag)

let crypto_derive_distinct () =
  check Alcotest.bool "labels derive distinct keys" false
    (String.equal (Crypto.derive "k" "enc") (Crypto.derive "k" "mac"))

(* ---- attestation ---- *)

let m = { Attestation.kernel = "linux-4.14"; gpu_stack = "acl+mali"; devicetree = "dt" }

let attestation_accepts_good_quote () =
  let q = Attestation.make_quote ~signing_key:"vmkey" m ~nonce:99L in
  match Attestation.verify ~verification_key:"vmkey" ~expected:m ~nonce:99L q with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let attestation_rejects_tampered () =
  let q = Attestation.tamper (Attestation.make_quote ~signing_key:"vmkey" m ~nonce:99L) in
  match Attestation.verify ~verification_key:"vmkey" ~expected:m ~nonce:99L q with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered quote accepted"

let attestation_rejects_nonce_replay () =
  let q = Attestation.make_quote ~signing_key:"vmkey" m ~nonce:1L in
  match Attestation.verify ~verification_key:"vmkey" ~expected:m ~nonce:2L q with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "stale nonce accepted"

let attestation_rejects_wrong_measurement () =
  (* A cloud VM running a modified GPU stack must not attest. *)
  let evil = { m with Attestation.gpu_stack = "acl+mali+backdoor" } in
  let q = Attestation.make_quote ~signing_key:"vmkey" evil ~nonce:1L in
  match Attestation.verify ~verification_key:"vmkey" ~expected:m ~nonce:1L q with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong measurement accepted"

(* ---- worlds ---- *)

let worlds_basic_isolation () =
  let w = Worlds.create () in
  Worlds.add_resource w ~name:"gpu-mmio" ~secure:false;
  Worlds.check_access w Worlds.Normal ~name:"gpu-mmio";
  Worlds.set_secure w ~name:"gpu-mmio" true;
  (match Worlds.check_access w Worlds.Normal ~name:"gpu-mmio" with
  | () -> Alcotest.fail "normal world accessed secure resource"
  | exception Worlds.Access_denied v ->
    check Alcotest.string "names resource" "gpu-mmio" v.Worlds.what);
  (* The secure world always may. *)
  Worlds.check_access w Worlds.Secure ~name:"gpu-mmio";
  check Alcotest.int "violation recorded" 1 (List.length (Worlds.violations w))

let worlds_unknown_resource () =
  let w = Worlds.create () in
  Alcotest.check_raises "unknown" (Invalid_argument "Worlds: unknown resource nope") (fun () ->
      Worlds.check_access w Worlds.Secure ~name:"nope")

let worlds_duplicate_rejected () =
  let w = Worlds.create () in
  Worlds.add_resource w ~name:"x" ~secure:false;
  Alcotest.check_raises "dup" (Invalid_argument "Worlds.add_resource: duplicate") (fun () ->
      Worlds.add_resource w ~name:"x" ~secure:true)

(* ---- channel ---- *)

let make_link () =
  let clock = Grt_sim.Clock.create () in
  let counters = Grt_sim.Metrics.create () in
  (Link.create ~clock ~metrics:counters Profile.wifi, clock, counters)

let channel_establish_and_exchange () =
  let link, clock, counters = make_link () in
  match
    Channel.establish ~link ~verification_key:"vmkey" ~vm_signing_key:"vmkey" ~vm_measurement:m
      ~expected:m ~nonce:5L
  with
  | Error e -> Alcotest.fail e
  | Ok ch ->
    (* Handshake costs two round trips (§7.1). *)
    check Alcotest.int "2 rtts" 2 (Grt_sim.Metrics.get_int counters Grt_sim.Metrics.Net_blocking_rtts);
    check Alcotest.bool "clock advanced" true (Grt_sim.Clock.now_s clock >= 0.04);
    let msg = Channel.seal_message ch Frame.Commit_request (Bytes.of_string "batch") in
    (match Channel.open_message ch msg with
    | Ok (Frame.Commit_request, p) -> check Alcotest.bytes "payload" (Bytes.of_string "batch") p
    | Ok _ -> Alcotest.fail "wrong kind"
    | Error e -> Alcotest.fail e)

let channel_rejects_bad_vm () =
  let link, _, _ = make_link () in
  let evil = { m with Attestation.kernel = "linux-rootkit" } in
  match
    Channel.establish ~link ~verification_key:"vmkey" ~vm_signing_key:"vmkey"
      ~vm_measurement:evil ~expected:m ~nonce:5L
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad VM attested"

let channel_eavesdropper_cannot_read () =
  let link, _, _ = make_link () in
  match
    Channel.establish ~link ~verification_key:"vmkey" ~vm_signing_key:"vmkey" ~vm_measurement:m
      ~expected:m ~nonce:5L
  with
  | Error e -> Alcotest.fail e
  | Ok ch ->
    let msg = Channel.seal_message ch Frame.Mem_sync (Bytes.of_string "shader code") in
    (* the wire bytes must not contain the plaintext *)
    let hay = Bytes.to_string msg in
    let contains needle =
      let n = String.length hay and mlen = String.length needle in
      let rec go i = i + mlen <= n && (String.sub hay i mlen = needle || go (i + 1)) in
      go 0
    in
    check Alcotest.bool "opaque on the wire" false (contains "shader code")

let channel_tamper_rejected () =
  let link, _, _ = make_link () in
  match
    Channel.establish ~link ~verification_key:"vmkey" ~vm_signing_key:"vmkey" ~vm_measurement:m
      ~expected:m ~nonce:5L
  with
  | Error e -> Alcotest.fail e
  | Ok ch ->
    let msg = Channel.seal_message ch Frame.Mem_sync (Bytes.of_string "page") in
    Bytes.set msg 1 'z';
    (match Channel.open_message ch msg with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "tampered message accepted")

(* ---- re-exports ---- *)

(* [Grt]'s replay-path modules are [Grt_tee]'s own, not copies: the same
   values, and the same exception constructor. *)
let reexports_are_the_library () =
  let same name a b = check Alcotest.bool name true (a == b) in
  same "Recording.sign" Grt.Recording.sign Grt_tee.Recording.sign;
  same "Replay_prog.compile" Grt.Replay_prog.compile Grt_tee.Replay_prog.compile;
  same "Replayer.replay_compiled" Grt.Replayer.replay_compiled Grt_tee.Replayer.replay_compiled;
  same "Gpushim.create" Grt.Gpushim.create Grt_tee.Gpushim.create;
  same "Memsync.install" Grt.Memsync.install Grt_tee.Memsync.install;
  same "Mode.default_config" Grt.Mode.default_config Grt_tee.Mode.default_config;
  let clock = Grt_sim.Clock.create () in
  let gpushim =
    Grt_tee.Gpushim.create ~clock ~sku:Grt_gpu.Sku.g71_mp8 ~session_salt:1L
      ~cfg:(Grt_tee.Mode.default_config Grt_tee.Mode.Ours_mds) ()
  in
  match
    Grt_tee.Replayer.replay_segments ~gpushim ~signing_key:"k"
      ~blobs:[ Bytes.of_string "not a recording" ] ~input:[||] ~params:[] ()
  with
  | exception Grt.Replayer.Rejected _ -> ()
  | _ -> Alcotest.fail "a malformed blob replayed"

let () =
  Alcotest.run "grt_tee"
    [
      ( "crypto",
        [
          Alcotest.test_case "seal/open" `Quick crypto_seal_open;
          Alcotest.test_case "wrong key" `Quick crypto_wrong_key_fails;
          Alcotest.test_case "tamper detected" `Quick crypto_tamper_detected;
          Alcotest.test_case "ciphertext hides plaintext" `Quick crypto_ciphertext_hides_plaintext;
          Alcotest.test_case "nonce varies ciphertext" `Quick crypto_nonce_varies_ciphertext;
          Alcotest.test_case "mac verify" `Quick crypto_mac_verify;
          Alcotest.test_case "derive distinct" `Quick crypto_derive_distinct;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "accepts good quote" `Quick attestation_accepts_good_quote;
          Alcotest.test_case "rejects tampered" `Quick attestation_rejects_tampered;
          Alcotest.test_case "rejects nonce replay" `Quick attestation_rejects_nonce_replay;
          Alcotest.test_case "rejects wrong measurement" `Quick attestation_rejects_wrong_measurement;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "basic isolation" `Quick worlds_basic_isolation;
          Alcotest.test_case "unknown resource" `Quick worlds_unknown_resource;
          Alcotest.test_case "duplicate rejected" `Quick worlds_duplicate_rejected;
        ] );
      ( "channel",
        [
          Alcotest.test_case "establish and exchange" `Quick channel_establish_and_exchange;
          Alcotest.test_case "rejects bad VM" `Quick channel_rejects_bad_vm;
          Alcotest.test_case "eavesdropper cannot read" `Quick channel_eavesdropper_cannot_read;
          Alcotest.test_case "tamper rejected" `Quick channel_tamper_rejected;
        ] );
      ( "reexports",
        [ Alcotest.test_case "Grt re-exports Grt_tee's values" `Quick reexports_are_the_library ] );
    ]
