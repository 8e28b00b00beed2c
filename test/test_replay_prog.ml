(* The replay compiler and its streaming verifier: differential equivalence
   against the interpreted replayer (property-tested and across the full
   model zoo), streaming chunk-tamper detection, hostile blobs rejected
   without raising or over-allocating, replay attestation tokens, and the
   bench-row JSON schema. *)

module Orchestrate = Grt.Orchestrate
module Replayer = Grt.Replayer
module Replay_prog = Grt.Replay_prog
module Recording = Grt.Recording
module Mode = Grt.Mode
module E = Grt.Experiments
module Attestation = Grt_tee.Attestation
module Network = Grt_mlfw.Network
module Zoo = Grt_mlfw.Zoo
module Runner = Grt_mlfw.Runner
module Profile = Grt_net.Profile
module Sku = Grt_gpu.Sku
module Json = Grt_util.Json

let check = Alcotest.check

let sku = Sku.g71_mp8

let record ?(net = Zoo.mnist) () =
  Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku ~net ~seed:42L ()

let mnist_recording = lazy (record ())

let replay_both ?(blob = (Lazy.force mnist_recording).Orchestrate.blob) ~net ~input_seed () =
  let plan = Network.expand net in
  let input = Runner.input_values plan ~seed:input_seed in
  let params = Runner.weight_values plan ~seed:42L in
  let interp = Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:input_seed () in
  let prog = Orchestrate.compile_recording ~blob () in
  let compiled = Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:input_seed () in
  (interp.Orchestrate.r, compiled.Orchestrate.r)

(* Property: for any fresh input, the compiled path is indistinguishable
   from the interpreted one — same output bits, same entry/verification
   counts. The input seed is the whole state space of a replay. *)
let compiled_equals_interpreted_prop =
  QCheck.Test.make ~count:12 ~name:"compiled replay == interpreted replay (any input)"
    QCheck.(map Int64.of_int small_int)
    (fun input_seed ->
      let i, c = replay_both ~net:Zoo.mnist ~input_seed () in
      i.Replayer.output = c.Replayer.output
      && i.Replayer.entries_applied = c.Replayer.entries_applied
      && i.Replayer.reads_verified = c.Replayer.reads_verified
      && i.Replayer.reads_skipped_nondet = c.Replayer.reads_skipped_nondet)

let compiled_bit_identical_all_nets () =
  (* The acceptance bar: bit-identical on every network in the zoo. *)
  List.iter
    (fun net ->
      let o = record ~net () in
      let i, c = replay_both ~blob:o.Orchestrate.blob ~net ~input_seed:7L () in
      check Alcotest.bool (net.Network.name ^ " bit-identical") true
        (i.Replayer.output = c.Replayer.output);
      check Alcotest.int
        (net.Network.name ^ " same entries applied")
        i.Replayer.entries_applied c.Replayer.entries_applied)
    Zoo.all

let warm_session_reuse_stays_identical () =
  (* Compile once, one session, many replays: hints and cached images must
     not change semantics between the cold and warm executions. *)
  let blob = (Lazy.force mnist_recording).Orchestrate.blob in
  let plan = Network.expand Zoo.mnist in
  let params = Runner.weight_values plan ~seed:42L in
  let prog = Orchestrate.compile_recording ~blob () in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  List.iter
    (fun seed ->
      let input = Runner.input_values plan ~seed in
      let warm = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
      let interp = Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed () in
      check Alcotest.bool
        (Printf.sprintf "warm replay (seed %Ld) bit-identical" seed)
        true
        (warm.Replayer.output = interp.Orchestrate.r.Replayer.output))
    [ 7L; 8L; 7L; 9L; 7L ]

let compile_stats_sensible () =
  let blob = (Lazy.force mnist_recording).Orchestrate.blob in
  let prog = Orchestrate.compile_recording ~blob () in
  let st = Replay_prog.stats prog in
  let rec_t = (Lazy.force mnist_recording).Orchestrate.recording in
  check Alcotest.int "entry count preserved" (Array.length rec_t.Recording.entries)
    st.Replay_prog.entries;
  check Alcotest.bool "write runs fused" true (st.Replay_prog.fused_writes > 0);
  check Alcotest.bool "memory image precompiled" true (st.Replay_prog.static_pages > 0);
  check Alcotest.bool "ops below entries" true (st.Replay_prog.ops < st.Replay_prog.entries)

let streaming_rejects_tampered_chunk () =
  (* v2 layout is header ∥ mac ∥ chunk bodies: flipping the blob's last
     byte corrupts a chunk body but leaves the signed header intact, so
     compilation (header-only verification) must succeed and the executor's
     streaming hash check must catch it mid-replay. *)
  let blob = Bytes.copy (Lazy.force mnist_recording).Orchestrate.blob in
  let last = Bytes.length blob - 1 in
  Bytes.set blob last (Char.chr (Char.code (Bytes.get blob last) lxor 0xFF));
  let prog =
    match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
    | Ok p -> p
    | Error e -> Alcotest.fail ("header verification should pass, got: " ^ e)
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  match Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:7L () with
  | _ -> Alcotest.fail "tampered chunk replayed"
  | exception Replayer.Rejected _ -> ()

let tampered_header_rejected_at_compile () =
  let blob = Bytes.copy (Lazy.force mnist_recording).Orchestrate.blob in
  Bytes.set blob 16 '\xFF';
  match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
  | Ok _ -> Alcotest.fail "tampered header compiled"
  | Error _ -> ()

(* A chunk body is not hash-checked before static lowering decodes its
   [Enc_raw_rc] images, so a tampered length field inside one must come back
   as an [Error] from [of_blob] — without first allocating what it
   declares. *)
let fastpath_recording =
  lazy
    (Orchestrate.record ~config:Grt.Service.fastpath_cfg ~profile:Profile.wifi ~mode:Mode.Ours_mds
       ~sku ~net:Zoo.mnist ~seed:42L ())

let find_sub hay needle =
  let n = Bytes.length needle in
  let rec go i =
    if i + n > Bytes.length hay then None
    else if Bytes.equal (Bytes.sub hay i n) needle then Some i
    else go (i + 1)
  in
  go 0

let tampered_rc_body_rejected_at_compile () =
  let blob = (Lazy.force fastpath_recording).Orchestrate.blob in
  let key = Orchestrate.cloud_signing_key in
  let v =
    match Recording.parse_signed ~key blob with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let body =
    Array.to_list v.Recording.vrec.Recording.entries
    |> List.concat_map (function
         | Recording.Mem_load { Grt.Memsync.tagged = true; records } ->
           List.filter_map
             (fun (_, enc, body) -> if enc = Grt.Memsync.Enc_raw_rc then Some body else None)
             records
         | _ -> [])
    |> List.find_opt (fun b -> Bytes.length b >= 16)
  in
  let body = match body with Some b -> b | None -> Alcotest.fail "no raw+rc record in the blob" in
  let at = match find_sub blob body with Some i -> i | None -> Alcotest.fail "body not in blob" in
  List.iter
    (fun prefix ->
      let tampered = Bytes.copy blob in
      Bytes.blit_string prefix 0 tampered at (String.length prefix);
      (* A minor collection between the two reads can make OCaml 5.1 report a
         spurious 0x1C0000-byte jump; start from an empty minor heap. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let result = Replay_prog.of_blob ~key tampered in
      let allocated = Gc.allocated_bytes () -. before in
      (match result with
      | Ok _ -> Alcotest.failf "tampered body compiled (prefix %S)" prefix
      | Error _ -> ());
      if allocated > 4e6 then
        Alcotest.failf "rejecting the tampered body allocated %.0f bytes" allocated)
    [ "\x80\x80\x80\x80\x02"; "\x80\x80\x80\x80\x80\x80\x80\x80\x40" ]

(* Hostile bytes at the trust boundary: every decoder must answer [Error]
   without raising and without allocating what the bytes declare. The base
   is a signed 200-entry blob with no slots whose first entry is a one-page
   [Mem_load], so each field sits at a known offset. *)
let hostile_blobs_rejected_cheaply () =
  let key = Orchestrate.cloud_signing_key in
  let workload = "hostile" in
  let page = Bytes.make Grt_gpu.Mem.page_size '\x5a' in
  let entries =
    Array.init 200 (fun i ->
        if i = 0 then
          Recording.Mem_load
            { Grt.Memsync.tagged = false; records = [ (0x80000L, Grt.Memsync.Enc_raw, page) ] }
        else Recording.Reg_write { reg = 4 * (i mod 64); value = Int64.of_int i })
  in
  let blob = Recording.sign ~key { Recording.workload; gpu_id = sku.Sku.gpu_id; entries; slots = [] } in
  (* magic ∥ version ∥ workload ∥ gpu_id ∥ n_slots ∥ varint 200 (2 bytes) ∥ n_chunks *)
  let slots_at = 6 + 1 + String.length workload + 8 in
  let chunks_at = slots_at + 3 in
  (* tag 5 ∥ page count ∥ pfn (8) ∥ varint 4096 (2) ∥ page *)
  let count_at =
    match find_sub blob page with Some i -> i - 11 | None -> Alcotest.fail "page not in blob"
  in
  check Alcotest.(list int) "fields where expected" [ 0; 4; 5; 1 ]
    (List.map (fun i -> Char.code (Bytes.get blob i)) [ slots_at; chunks_at; count_at - 1; count_at ]);
  let tamper at s =
    let b = Bytes.copy blob in
    Bytes.blit_string s 0 b at (String.length s);
    b
  in
  let wide = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  let decoders =
    [
      ("parse_signed", fun b -> Result.is_ok (Recording.parse_signed ~key b));
      ("verify_and_parse", fun b -> Result.is_ok (Recording.verify_and_parse ~key b));
      ("verify", fun b -> Result.is_ok (Recording.verify ~key b));
      ("of_blob", fun b -> Result.is_ok (Replay_prog.of_blob ~key b));
    ]
  in
  List.iter
    (fun (what, bad) ->
      List.iter
        (fun (decoder, accepts) ->
          (* A minor collection between the two reads can make OCaml 5.1 report a
             spurious 0x1C0000-byte jump; start from an empty minor heap. *)
          Gc.minor ();
          let before = Gc.allocated_bytes () in
          let accepted =
            match accepts bad with
            | ok -> ok
            | exception e -> Alcotest.failf "%s raised %s on %s" decoder (Printexc.to_string e) what
          in
          let allocated = Gc.allocated_bytes () -. before in
          if accepted then Alcotest.failf "%s accepted %s" decoder what;
          if allocated > 4e6 then
            Alcotest.failf "%s allocated %.0f bytes rejecting %s" decoder allocated what)
        decoders)
    [
      ("a 63-bit workload length", tamper 6 wide);
      ("a 63-bit slot count", tamper slots_at wide);
      ("2^26 chunks", tamper chunks_at "\x80\x80\x80\x20");
      ("2^40 chunks", tamper chunks_at "\x80\x80\x80\x80\x80\x20");
      ("a 63-bit page count in a chunk body", tamper count_at wide);
    ]

(* Signed-but-malformed page records: the blob verifies, so only the page
   decoder stands between these bodies and the GPU's memory. Each record is
   appended to the MNIST recording and re-signed. Compile must answer
   [Error] or execution must raise [Rejected] — in both replayers — and
   nothing may escape as an untyped exception. *)
let hostile_records_rejected () =
  let key = Orchestrate.cloud_signing_key in
  let rec_t = (Lazy.force mnist_recording).Orchestrate.recording in
  let pfn = 0x80000L in
  let short = Bytes.make 100 '\x5a' in
  let span_past_end =
    (* varint 4096 ∥ one span ∥ gap 4090 ∥ length 100 ∥ 100 bytes *)
    let b = Grt_util.Byte_buf.create () in
    List.iter (Grt_util.Byte_buf.add_varint b) [ Grt_gpu.Mem.page_size; 1; 4090; 100 ];
    Grt_util.Byte_buf.add_sub b short ~pos:0 ~len:100;
    Grt_util.Byte_buf.contents b
  in
  let unknown_hash = Bytes.create 8 in
  Bytes.set_int64_le unknown_hash 0 0x0123_4567_89AB_CDEFL;
  let load ~tagged e body = Recording.Mem_load { Grt.Memsync.tagged; records = [ (pfn, e, body) ] } in
  let enc = load ~tagged:true in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let outcome f =
    match f () with
    | () -> "accepted"
    | exception Replayer.Rejected _ -> "rejected"
    | exception e -> "raised " ^ Printexc.to_string e
  in
  List.iter
    (fun (what, entry) ->
      let blob =
        Recording.sign ~key
          { rec_t with Recording.entries = Array.append rec_t.Recording.entries [| entry |] }
      in
      let compiled () =
        match Replay_prog.of_blob ~key blob with
        | Error e -> raise (Replayer.Rejected e)
        | Ok prog -> ignore (Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:7L ())
      in
      let interpreted () =
        ignore (Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:7L ())
      in
      check Alcotest.string (what ^ ", compiled") "rejected" (outcome compiled);
      check Alcotest.string (what ^ ", interpreted") "rejected" (outcome interpreted))
    [
      ("a delta span past the page end", enc Grt.Memsync.Enc_delta span_past_end);
      ("an unknown hash reference", enc Grt.Memsync.Enc_hash_ref unknown_hash);
      ("a 100-byte raw page", enc Grt.Memsync.Enc_raw short);
      ("a 100-byte page range-coded", enc Grt.Memsync.Enc_raw_rc (Grt_util.Range_coder.encode short));
      ("a 100-byte untagged page", load ~tagged:false Grt.Memsync.Enc_raw short);
    ]

let divergence_releases_gpu () =
  (* An exception mid-execution must still reset and release the GPU so the
     session object remains usable for the next replay. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_read { reg; value; verify = true } when not !patched ->
        entries.(i) <- Recording.Reg_read { reg; value = Int64.logxor value 0x5L; verify = true };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a verified read to corrupt" true !patched;
  let bad_blob =
    Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries }
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  let bad_prog = Orchestrate.compile_recording ~blob:bad_blob () in
  (match Replayer.replay_compiled ~gpushim:g ~prog:bad_prog ~input ~params () with
  | _ -> Alcotest.fail "divergence not detected"
  | exception Replayer.Divergence _ -> ());
  check Alcotest.bool "GPU released after divergence" false (Grt.Gpushim.isolated g);
  (* Same session replays the honest program afterwards. *)
  let prog = Orchestrate.compile_recording ~blob:o.Orchestrate.blob () in
  let r = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
  let interp = Orchestrate.replay_recording ~sku ~blob:o.Orchestrate.blob ~input ~params ~seed:7L () in
  check Alcotest.bool "session reusable after divergence" true
    (r.Replayer.output = interp.Orchestrate.r.Replayer.output)

let attest_token_roundtrip () =
  let o = Lazy.force mnist_recording in
  let prog = Orchestrate.compile_recording ~blob:o.Orchestrate.blob () in
  let root = Replay_prog.root prog in
  let key = Orchestrate.client_attestation_key in
  let token =
    Attestation.make_replay_token ~signing_key:key ~root ~gpu_id:sku.Sku.gpu_id ~entries:1024
      ~nonce:99L
  in
  check Alcotest.bool "token verifies" true
    (Result.is_ok
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:99L token));
  check Alcotest.bool "wrong nonce rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:100L token));
  check Alcotest.bool "wrong root rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root:(Int64.add root 1L)
          ~gpu_id:sku.Sku.gpu_id ~nonce:99L token));
  check Alcotest.bool "tampered signature rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:99L
          (Attestation.tamper_replay_token token)))

let root_stable_across_resigning () =
  (* The Merkle root is the recording's identity: re-signing the same log
     yields the same root; changing one entry changes it. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let root_of blob =
    match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
    | Ok p -> Replay_prog.root p
    | Error e -> Alcotest.fail e
  in
  let r1 = root_of (Recording.sign ~key:Orchestrate.cloud_signing_key rec_t) in
  let r2 = root_of (Recording.sign ~key:Orchestrate.cloud_signing_key rec_t) in
  check Alcotest.int64 "same log, same root" r1 r2;
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_write { reg; value } when not !patched ->
        entries.(i) <- Recording.Reg_write { reg; value = Int64.logxor value 1L };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a register write to flip" true !patched;
  let r3 =
    root_of (Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries })
  in
  check Alcotest.bool "different log, different root" true (not (Int64.equal r1 r3))

let bench_row_json_schema () =
  (* The bench's machine-readable row must carry exactly the printed
     fields, with the types the plotting scripts expect. *)
  let ctx = E.create_ctx () in
  let rows = E.replay_bench ~nets:[ Zoo.mnist ] ~iters:1 ctx in
  check Alcotest.int "one row per net" 1 (List.length rows);
  let row = List.hd rows in
  check Alcotest.bool "bit-identical" true row.E.bit_identical;
  check Alcotest.bool "rates positive" true
    (row.E.interpreted_rps > 0. && row.E.compiled_cold_rps > 0. && row.E.compiled_warm_rps > 0.);
  match E.replay_bench_row_json row with
  | Json.Obj fields ->
    let expect name pred =
      match List.assoc_opt name fields with
      | Some v when pred v -> ()
      | Some _ -> Alcotest.fail (name ^ " has the wrong JSON type")
      | None -> Alcotest.fail (name ^ " missing from JSON row")
    in
    let is_num = function Json.Num _ -> true | _ -> false in
    let is_bool = function Json.Bool _ -> true | _ -> false in
    expect "workload" (function Json.Str "MNIST" -> true | _ -> false);
    List.iter
      (fun f -> expect f is_num)
      [
        "entries";
        "interpreted_rps";
        "compiled_cold_rps";
        "compiled_warm_rps";
        "warm_speedup";
        "fused_writes";
        "static_pages";
        "dynamic_loads";
        "warm_minor_words";
        "ceiling_warm_minor_words";
      ];
    expect "bit_identical" is_bool;
    (* Round-trips through the parser (the bench writes these to disk). *)
    (match Json.parse (Json.to_string (Json.Obj fields)) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("row does not re-parse: " ^ e))
  | _ -> Alcotest.fail "row is not a JSON object"

let () =
  Alcotest.run "grt_replay_prog"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest compiled_equals_interpreted_prop;
          Alcotest.test_case "bit-identical on all nets" `Slow compiled_bit_identical_all_nets;
          Alcotest.test_case "warm session reuse" `Quick warm_session_reuse_stays_identical;
          Alcotest.test_case "compile stats" `Quick compile_stats_sensible;
        ] );
      ( "verification",
        [
          Alcotest.test_case "streaming rejects tampered chunk" `Quick
            streaming_rejects_tampered_chunk;
          Alcotest.test_case "tampered header rejected at compile" `Quick
            tampered_header_rejected_at_compile;
          Alcotest.test_case "tampered rc body rejected at compile" `Quick
            tampered_rc_body_rejected_at_compile;
          Alcotest.test_case "hostile blobs rejected cheaply" `Quick hostile_blobs_rejected_cheaply;
          Alcotest.test_case "hostile page records rejected" `Quick hostile_records_rejected;
          Alcotest.test_case "divergence releases GPU" `Quick divergence_releases_gpu;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "replay token roundtrip" `Quick attest_token_roundtrip;
          Alcotest.test_case "root stable across resigning" `Quick root_stable_across_resigning;
        ] );
      ("bench", [ Alcotest.test_case "replay bench row JSON" `Slow bench_row_json_schema ]);
    ]
