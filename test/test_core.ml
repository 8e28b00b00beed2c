(* Tests for the GR-T core: recording format, memory synchronization,
   GPUShim batch application, and the DriverShim deferral/speculation
   machinery (§4, §5). *)

module Recording = Grt.Recording
module Replay_prog = Grt.Replay_prog
module Memsync = Grt.Memsync
module Gpushim = Grt.Gpushim
module Drivershim = Grt.Drivershim
module Mode = Grt.Mode
module Kbase = Grt_driver.Kbase
module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem
module Regs = Grt_gpu.Regs
module Sku = Grt_gpu.Sku
module Sexpr = Grt_util.Sexpr
module Session = Grt_runtime.Session
module Profile = Grt_net.Profile
module Link = Grt_net.Link
module Clock = Grt_sim.Clock
module Metrics = Grt_sim.Metrics

let check = Alcotest.check

(* ---- Recording ---- *)

let sample_recording () =
  {
    Recording.workload = "MNIST";
    gpu_id = Sku.g71_mp8.Sku.gpu_id;
    entries =
      [|
        Recording.Mem_load
          {
            Memsync.tagged = false;
            records = [ (0x100L, Memsync.Enc_raw, Bytes.make Mem.page_size 'p') ];
          };
        Recording.Reg_write { reg = Regs.gpu_command; value = 1L };
        Recording.Poll
          {
            reg = Regs.gpu_irq_rawstat;
            mask = Regs.irq_reset_completed;
            cond = Regs.Bits_set;
            max_iters = 100;
            spin_ns = 1000L;
          };
        Recording.Reg_read { reg = Regs.gpu_id; value = Sku.g71_mp8.Sku.gpu_id; verify = true };
        Recording.Reg_read { reg = Regs.latest_flush_id; value = 7L; verify = false };
        Recording.Wait_irq { line = Device.Job_irq };
      |];
    slots =
      [
        {
          Recording.slot_name = "input";
          kind = `Input;
          va = 0x4000_0000L;
          pa = 0x10_0000L;
          actual_bytes = 3136;
          model_bytes = 3136;
        };
        {
          Recording.slot_name = "act.08";
          kind = `Output;
          va = 0x4100_0000L;
          pa = 0x20_0000L;
          actual_bytes = 40;
          model_bytes = 40;
        };
        {
          Recording.slot_name = "w.01";
          kind = `Param;
          va = 0x4200_0000L;
          pa = 0x30_0000L;
          actual_bytes = 600;
          model_bytes = 600;
        };
      ];
  }

let recording_roundtrip () =
  let r = sample_recording () in
  match Recording.verify_and_parse ~key:"cloudkey" (Recording.sign ~key:"cloudkey" r) with
  | Ok r' ->
    check Alcotest.string "workload" r.Recording.workload r'.Recording.workload;
    check Alcotest.int64 "gpu id" r.Recording.gpu_id r'.Recording.gpu_id;
    check Alcotest.int "entries" (Array.length r.Recording.entries)
      (Array.length r'.Recording.entries);
    check Alcotest.bool "entries equal" true (r.Recording.entries = r'.Recording.entries);
    check Alcotest.bool "slots equal" true (r.Recording.slots = r'.Recording.slots)
  | Error e -> Alcotest.fail e

let recording_sign_verify () =
  let r = sample_recording () in
  let blob = Recording.sign ~key:"cloudkey" r in
  (match Recording.verify_and_parse ~key:"cloudkey" blob with
  | Ok r' -> check Alcotest.string "verified" "MNIST" r'.Recording.workload
  | Error e -> Alcotest.fail e);
  match Recording.verify_and_parse ~key:"otherkey" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong key accepted"

let recording_tamper_rejected () =
  (* A local adversary who flips bits in the downloaded recording must be
     caught before replay (§7.1 replay integrity). *)
  let blob = Recording.sign ~key:"cloudkey" (sample_recording ()) in
  Bytes.set blob 40 (Char.chr (Char.code (Bytes.get blob 40) lxor 0x80));
  match Recording.verify_and_parse ~key:"cloudkey" blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered recording accepted"

let recording_counts_and_slots () =
  let r = sample_recording () in
  check Alcotest.int "writes" 1 (Recording.count_entries r `Writes);
  check Alcotest.int "reads" 2 (Recording.count_entries r `Reads);
  check Alcotest.int "polls" 1 (Recording.count_entries r `Polls);
  check Alcotest.int "irqs" 1 (Recording.count_entries r `Irqs);
  check Alcotest.int "pages" 1 (Recording.count_entries r `Mem_pages);
  check Alcotest.bool "input slot" true
    ((Option.get (Recording.input_slot r)).Recording.slot_name = "input");
  check Alcotest.bool "output slot" true
    ((Option.get (Recording.output_slot r)).Recording.slot_name = "act.08");
  check Alcotest.int "param slots" 1 (List.length (Recording.param_slots r))

let gen_entry =
  let open QCheck2.Gen in
  let reg = map (fun r -> r land 0x3FFC) nat in
  frequency
    [
      (4, map2 (fun r v -> Recording.Reg_write { reg = r; value = v }) reg int64);
      ( 4,
        map3
          (fun r v verify -> Recording.Reg_read { reg = r; value = v; verify })
          reg int64 bool );
      ( 2,
        map3
          (fun r m iters ->
            Recording.Poll
              { reg = r; mask = m; cond = Regs.Bits_set; max_iters = iters; spin_ns = 1000L })
          reg int64 small_nat );
      ( 1,
        map (fun line -> Recording.Wait_irq { line }) (oneofl Device.[ Job_irq; Gpu_irq; Mmu_irq ])
      );
      ( 1,
        map
          (fun pages ->
            Recording.Mem_load
              {
                Memsync.tagged = false;
                records =
                  List.map
                    (fun (pfn, fill) ->
                      ( Int64.of_int pfn,
                        Memsync.Enc_raw,
                        Bytes.make Mem.page_size (Char.chr (fill land 0xFF)) ))
                    pages;
              })
          (list_size (int_bound 3) (pair small_nat small_nat)) );
    ]

let recording_qcheck_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:100 ~name:"arbitrary recordings roundtrip"
       QCheck2.Gen.(list_size (int_bound 40) gen_entry)
       (fun entries ->
         let r =
           {
             Recording.workload = "prop";
             gpu_id = 0x1234L;
             entries = Array.of_list entries;
             slots = [];
           }
         in
         match Recording.verify_and_parse ~key:"k" (Recording.sign ~key:"k" r) with
         | Ok r' -> r'.Recording.entries = r.Recording.entries
         | Error _ -> false))

(* Differential against [Sign_reference], the growing-buffer signer:
   every entry kind (both poll conditions, untagged and tagged page loads
   with every encoding and multi-byte varints), random slots, the empty
   log, and chunks of one entry, of the default 64 and of more entries
   than the log holds must sign to identical bytes. *)
let gen_sign_entry =
  let open QCheck2.Gen in
  let reg = map (fun r -> r land 0x3FFC) nat in
  let body = map2 (fun n c -> Bytes.make n c) (int_bound 300) char in
  let tagged_record =
    map3
      (fun pfn enc b -> (Int64.of_int pfn, enc, b))
      (oneof [ int_bound 200; int_bound 0xFFFFFF ])
      (oneofl Memsync.[ Enc_raw; Enc_raw_rc; Enc_delta; Enc_delta_rc; Enc_hash_ref ])
      body
  in
  oneof
    [
      gen_entry;
      map3
        (fun r m (set, iters) ->
          Recording.Poll
            {
              reg = r;
              mask = m;
              cond = (if set then Regs.Bits_set else Regs.Bits_clear);
              max_iters = iters;
              spin_ns = Int64.of_int iters;
            })
        reg int64
        (pair bool (oneof [ small_nat; int_bound 0x3FFFFFFF ]));
      map
        (fun records -> Recording.Mem_load { Memsync.tagged = false; records })
        (list_size (int_bound 3)
           (map2 (fun pfn b -> (pfn, Memsync.Enc_raw, b)) int64 body));
      map
        (fun records -> Recording.Mem_load { Memsync.tagged = true; records })
        (list_size (int_bound 4) tagged_record);
    ]

let gen_slot =
  QCheck2.Gen.(
    map3
      (fun name kind (va, pa, (actual, model)) ->
        { Recording.slot_name = name; kind; va; pa; actual_bytes = actual; model_bytes = model })
      (string_size ~gen:printable (int_bound 12))
      (oneofl [ `Input; `Output; `Param ])
      (triple int64 int64 (pair nat nat)))

let recording_qcheck_sign_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"sign writes the reference signer's bytes"
       QCheck2.Gen.(
         triple
           (list_size (oneof [ return 0; int_bound 10; int_bound 200 ]) gen_sign_entry)
           (list_size (int_bound 3) gen_slot)
           (pair (oneofl [ `One; `Default; `Past_end ]) (string_size (int_bound 20))))
       (fun (entries, slots, (chunks, workload)) ->
         let r =
           { Recording.workload; gpu_id = 0x1234L; entries = Array.of_list entries; slots }
         in
         let chunk_entries =
           match chunks with
           | `One -> 1
           | `Default -> Recording.default_chunk_entries
           | `Past_end -> List.length entries + 1 + (List.length slots * 7)
         in
         Bytes.equal
           (Recording.sign ~chunk_entries ~key:"k" r)
           (Sign_reference.sign ~chunk_entries ~key:"k" r)))

(* [verify] gives a verdict without decoding entries; it must agree with the
   full parse on every blob [sign] produces and on every tampering of one. *)
let verdicts_agree blob =
  Result.is_ok (Recording.verify ~key:"k" blob)
  = Result.is_ok (Recording.verify_and_parse ~key:"k" blob)

let rejected blob = verdicts_agree blob && Result.is_error (Recording.verify ~key:"k" blob)

(* Offsets of each chunk body in a signed blob, and their lengths. *)
let chunk_spans blob =
  match Recording.parse_signed ~key:"k" blob with
  | Error e -> failwith e
  | Ok v ->
    let lens = Array.map (fun c -> Bytes.length c.Recording.chunk_raw) v.Recording.vchunks in
    let pos = ref (Bytes.length blob - Array.fold_left ( + ) 0 lens) in
    Array.map
      (fun len ->
        let at = !pos in
        pos := at + len;
        (at, len))
      lens

let recording_qcheck_signature =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"bit flips anywhere break the signature"
       QCheck2.Gen.(
         pair
           (pair (list_size (int_range 1 20) gen_entry) (list_size (int_range 1 20) gen_entry))
           (pair (pair small_nat (int_range 1 255)) (pair small_nat (pair small_nat small_nat))))
       (fun ((entries, other), ((pos, delta), (cut, (into, from)))) ->
         (* Small chunks give the splice several chunk boundaries. *)
         let signed entries =
           Recording.sign ~chunk_entries:4 ~key:"k"
             { Recording.workload = "prop"; gpu_id = 0x1234L; entries = Array.of_list entries; slots = [] }
         in
         let blob = signed entries in
         let donor = signed other in
         let flipped = Bytes.copy blob in
         let pos = pos mod Bytes.length blob in
         Bytes.set flipped pos (Char.chr (Char.code (Bytes.get blob pos) lxor delta));
         let truncated = Bytes.sub blob 0 (cut mod Bytes.length blob) in
         let spans = chunk_spans blob and donor_spans = chunk_spans donor in
         let at, len = spans.(into mod Array.length spans) in
         let d_at, d_len = donor_spans.(from mod Array.length donor_spans) in
         let spliced =
           Bytes.concat Bytes.empty
             [
               Bytes.sub blob 0 at;
               Bytes.sub donor d_at d_len;
               Bytes.sub blob (at + len) (Bytes.length blob - at - len);
             ]
         in
         Result.is_ok (Recording.verify ~key:"k" blob)
         && verdicts_agree blob && rejected flipped && rejected truncated
         && if Bytes.equal spliced blob then verdicts_agree spliced else rejected spliced))

(* The verify memo copies a blob in on its second verification only: a
   blob verified once costs no residency, the second verification admits
   it, and the third hits. A blob mutated after admission is verified
   again, never served the verdict of the bytes it used to hold. *)
let recording_verify_memo_admits_on_second_sight () =
  let module M = Grt_util.Memo_stats in
  let stats () =
    match List.find_opt (fun c -> M.name c = "recording.verify") (M.all ()) with
    | Some c -> M.snapshot c
    | None -> Alcotest.fail "recording.verify never registered"
  in
  let blob =
    Recording.sign ~key:"k"
      {
        Recording.workload = "second-sight";
        gpu_id = 0x5eedL;
        entries = Array.init 200 (fun i -> Recording.Reg_write { reg = 4 * i; value = Int64.of_int i });
        slots = [];
      }
  in
  let verify () = Recording.verify ~key:"k" blob in
  let s0 = stats () in
  check Alcotest.bool "first verification" true (Result.is_ok (verify ()));
  let s1 = stats () in
  check Alcotest.int "a first sight is a miss" (s0.M.s_misses + 1) s1.M.s_misses;
  check Alcotest.int "and keeps nothing resident" s0.M.s_resident s1.M.s_resident;
  check Alcotest.int "nor any bytes" s0.M.s_resident_bytes s1.M.s_resident_bytes;
  check Alcotest.bool "second verification" true (Result.is_ok (verify ()));
  let s2 = stats () in
  check Alcotest.int "the second sight misses" (s1.M.s_misses + 1) s2.M.s_misses;
  if s2.M.s_resident_bytes < Bytes.length blob then
    Alcotest.fail "the second verification did not admit the blob";
  check Alcotest.bool "third verification" true (Result.is_ok (verify ()));
  check Alcotest.int "the third hits" (s2.M.s_hits + 1) (stats ()).M.s_hits;
  (* Flip a byte of the admitted blob in place, inside the last chunk.
     Whether or not the sparse memo key samples it, the first look misses
     (a stale entry under the same key fails the full compare), and no
     later look returns the old verdict. *)
  let at = Bytes.length blob - 3 in
  Bytes.set blob at (Char.chr (Char.code (Bytes.get blob at) lxor 0x20));
  let hits = (stats ()).M.s_hits in
  check Alcotest.bool "the mutated blob is rejected" true (Result.is_error (verify ()));
  check Alcotest.int "not by a hit" hits (stats ()).M.s_hits;
  for _ = 1 to 3 do
    check Alcotest.bool "and stays rejected" true (Result.is_error (verify ()))
  done

(* A resident's verdict is the full check's ([Recording.verify] on a miss):
   [Ok] for a signed blob, the chunk's error for the blob with one chunk
   byte flipped, and the header's under another key. Only the first call
   under a key checks; the rest reuse its verdict. Once owned, the resident
   holds its own copy: overwriting the bytes it was lent changes nothing,
   and the verdict it kept still holds. *)
let recording_resident_verdicts () =
  let resident b =
    let r = Recording.resident_lent b in
    Recording.own r;
    r
  in
  let module M = Grt_util.Memo_stats in
  let stats () =
    match List.find_opt (fun c -> M.name c = "recording.verify") (M.all ()) with
    | Some c -> M.snapshot c
    | None -> Alcotest.fail "recording.verify never registered"
  in
  let verdict = Alcotest.(result unit string) in
  let blob =
    Recording.sign ~key:"k"
      {
        Recording.workload = "resident";
        gpu_id = 0x7e5L;
        entries = Array.init 300 (fun i -> Recording.Reg_write { reg = 4 * i; value = Int64.of_int i });
        slots = [];
      }
  in
  let flipped = Bytes.copy blob in
  let at = Bytes.length flipped - 5 in
  Bytes.set flipped at (Char.chr (Char.code (Bytes.get flipped at) lxor 0x01));
  List.iter
    (fun (what, b) ->
      let full = Recording.verify ~key:"k" b in
      let r = resident b in
      check Alcotest.int (what ^ ": length") (Bytes.length b) (Recording.resident_length r);
      let s0 = stats () in
      check verdict (what ^ ": first use") full (Recording.verify_resident ~key:"k" r);
      check Alcotest.int (what ^ ": first use checks") (s0.M.s_misses + 1) (stats ()).M.s_misses;
      let s1 = stats () in
      for _ = 1 to 3 do
        check verdict (what ^ ": re-use") full (Recording.verify_resident ~key:"k" r)
      done;
      check Alcotest.int (what ^ ": re-uses hit") (s1.M.s_hits + 3) (stats ()).M.s_hits;
      check Alcotest.int (what ^ ": nothing charged to the memo") s1.M.s_resident_bytes
        (stats ()).M.s_resident_bytes;
      check verdict (what ^ ": another key")
        (Recording.verify ~key:"other" b)
        (Recording.verify_resident ~key:"other" r);
      check verdict (what ^ ": back to the first key") full (Recording.verify_resident ~key:"k" r))
    [ ("signed", blob); ("flipped", flipped) ];
  check verdict "the flipped blob fails its chunk"
    (Error "recording: chunk at entry 256 failed verification")
    (Recording.verify_resident ~key:"k" (resident flipped));
  let lent = Recording.resident_lent blob in
  check verdict "lent" (Ok ()) (Recording.verify_resident ~key:"k" lent);
  Recording.own lent;
  let fresh = resident blob in
  Bytes.fill blob 0 (Bytes.length blob) '\000';
  check verdict "owned after its verdict" (Ok ()) (Recording.verify_resident ~key:"k" lent);
  check verdict "owned before any verdict" (Ok ()) (Recording.verify_resident ~key:"k" fresh)

(* A blob the key vouches for whose one entry holds byte [b] [from_end]
   bytes before the blob's end: [entry] is signed alone, the byte is set,
   and the chunk hash, the Merkle root (a lone chunk's own hash) and the
   header MAC are recomputed over the result. *)
let resigned_with_byte entry ~from_end b =
  let blob =
    Recording.sign ~key:"k"
      { Recording.workload = "strict"; gpu_id = 1L; entries = [| entry |]; slots = [] }
  in
  let len = Bytes.length blob in
  let body_len = Bytes.length (fst (Sign_reference.chunk_bounds ~chunk_entries:1 [| entry |])) in
  let header_len = len - body_len - 8 in
  Bytes.set_uint8 blob (len - from_end) b;
  let hash = Grt_util.Hashing.fnv1a_sub blob ~pos:(len - body_len) ~len:body_len in
  Bytes.set_int64_le blob (header_len - 16) hash;
  Bytes.set_int64_le blob (header_len - 8) hash;
  Bytes.set_int64_le blob header_len (Grt_tee.Crypto.mac ~key:"k" (Bytes.sub blob 0 header_len));
  blob

(* The poll-condition and verify bytes hold 0 or 1 and the IRQ line 0, 1
   or 2; any other value in a correctly signed blob is a typed [Error] from
   every decoder, never a default. *)
let recording_decoder_strict () =
  let poll cond =
    Recording.Poll
      { reg = Regs.gpu_irq_rawstat; mask = 0x100L; cond; max_iters = 100; spin_ns = 1000L }
  in
  let read verify = Recording.Reg_read { reg = Regs.gpu_id; value = 7L; verify } in
  let irq line = Recording.Wait_irq { line } in
  List.iter
    (fun (field, from_end, decoded) ->
      let signed = List.hd decoded in
      let orig = List.length decoded - 1 in
      check Alcotest.bool (field ^ ": re-signing the signed byte is the identity") true
        (Bytes.equal
           (resigned_with_byte signed ~from_end orig)
           (Recording.sign ~key:"k"
              { Recording.workload = "strict"; gpu_id = 1L; entries = [| signed |]; slots = [] }));
      for b = 0 to 255 do
        let blob = resigned_with_byte signed ~from_end b in
        let what = Printf.sprintf "%s byte %d" field b in
        let parsed = Recording.parse_signed ~key:"k" blob in
        match List.nth_opt (List.rev decoded) b with
        | Some entry ->
          (match parsed with
          | Ok v ->
            check Alcotest.bool (what ^ " decodes") true
              (v.Recording.vrec.Recording.entries = [| entry |])
          | Error e -> Alcotest.failf "%s rejected: %s" what e);
          check Alcotest.bool (what ^ ", compiled") true
            (Result.is_ok (Replay_prog.of_blob ~key:"k" blob))
        | None ->
          check Alcotest.bool (what ^ ", parse_signed") true (Result.is_error parsed);
          check Alcotest.bool (what ^ ", verify_and_parse") true
            (Result.is_error (Recording.verify_and_parse ~key:"k" blob));
          check Alcotest.bool (what ^ ", Replay_prog.of_blob") true
            (Result.is_error (Replay_prog.of_blob ~key:"k" blob))
      done)
    (* (field, offset from the end, entries decoded from bytes n .. 0: the
       first is the one signed, carrying the highest valid byte) *)
    [
      ("poll condition", 10, [ poll Regs.Bits_set; poll Regs.Bits_clear ]);
      ("verify", 1, [ read true; read false ]);
      ("IRQ line", 1, [ irq Device.Mmu_irq; irq Device.Gpu_irq; irq Device.Job_irq ]);
    ]

let recording_garbage_rejected () =
  (* There is one wire format: a version-1 header gets a typed error. *)
  let v1 = Recording.sign ~key:"k" (sample_recording ()) in
  Bytes.set_uint16_le v1 4 1;
  List.iter
    (fun (what, blob) ->
      (match Recording.verify ~key:"k" blob with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "%s verified" what);
      match Recording.verify_and_parse ~key:"k" blob with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s parsed" what)
    [ ("garbage", Bytes.of_string "not a recording at all...."); ("a version-1 blob", v1) ];
  check Alcotest.(result unit string) "version named" (Error "recording: unsupported version 1")
    (Recording.verify ~key:"k" v1)

(* ---- Memsync ---- *)

let mk_region ~name ~usage ~pa ~bytes =
  {
    Memsync.name;
    meta = Session.usage_is_metastate usage;
    va = Int64.add 0x4000_0000L pa;
    pa;
    model_bytes = bytes;
    actual_bytes = bytes;
  }

let memsync_meta_classification () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let code_pa = Mem.alloc_pages mem 1 in
  let data_pa = Mem.alloc_pages mem 2 in
  Mem.write_u8 mem code_pa 1;
  Mem.write_u8 mem data_pa 1;
  Memsync.register_region ms (mk_region ~name:"shader" ~usage:Session.Code ~pa:code_pa ~bytes:128);
  Memsync.register_region ms (mk_region ~name:"weights" ~usage:Session.Weights ~pa:data_pa ~bytes:8192);
  ignore (Memsync.sync_meta ms mem);
  let metas = Memsync.meta_pfns ms in
  check Alcotest.bool "code page is meta" true (List.mem (Mem.page_of_addr code_pa) metas);
  check Alcotest.bool "weights are not" false (List.mem (Mem.page_of_addr data_pa) metas)

let memsync_pt_pages_are_meta () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let mmu = Grt_gpu.Mmu.create mem ~fmt:Sku.Lpae_v7 in
  let pa = Mem.alloc_pages mem 1 in
  Grt_gpu.Mmu.map_page mmu ~va:0x1000L ~pa ~flags:Grt_gpu.Mmu.rw_data;
  Memsync.register_pt_root ms ~root_pa:(Grt_gpu.Mmu.root_pa mmu);
  ignore (Memsync.sync_meta ms mem);
  check Alcotest.int "all three table levels" 3 (List.length (Memsync.meta_pfns ms))

let memsync_sync_and_baseline () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let code_pa = Mem.alloc_pages mem 1 in
  Mem.write_u32 mem code_pa 0xAAL;
  Memsync.register_region ms (mk_region ~name:"cmd" ~usage:Session.Cmd ~pa:code_pa ~bytes:64);
  let p1 = Memsync.sync_meta ms mem in
  check Alcotest.int "first sync ships page" 1 (List.length p1.Memsync.records);
  let p2 = Memsync.sync_meta ms mem in
  check Alcotest.int "unchanged page not re-shipped" 0 (List.length p2.Memsync.records);
  Mem.write_u32 mem code_pa 0xBBL;
  let p3 = Memsync.sync_meta ms mem in
  check Alcotest.int "changed page ships again" 1 (List.length p3.Memsync.records);
  check Alcotest.bool "delta+compressed smaller than raw" true
    (p3.Memsync.wire_bytes < p3.Memsync.raw_bytes)

let memsync_apply_and_note () =
  let src = Mem.create () and dst = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_m) in
  let pa = Mem.alloc_pages src 1 in
  Mem.write_u32 src pa 0x1234L;
  Memsync.register_region ms (mk_region ~name:"cmd" ~usage:Session.Cmd ~pa ~bytes:64);
  let p = Memsync.sync_meta ms src in
  (* The receiving endpoint installs the page and learns that its peer
     holds it, so its own next sync does not echo the page back. *)
  let back = Memsync.create (Mode.default_config Mode.Ours_m) in
  Memsync.register_region back (mk_region ~name:"cmd" ~usage:Session.Cmd ~pa ~bytes:64);
  ignore (Memsync.receive back dst p);
  check Alcotest.int64 "applied" 0x1234L (Mem.read_u32 dst pa);
  let echo = Memsync.sync_meta back dst in
  check Alcotest.int "no echo" 0 (List.length echo.Memsync.records)

let memsync_naive_ship_once () =
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Naive) in
  (* Build a chain region + weight + output regions, write a descriptor. *)
  let cmd_pa = Mem.alloc_pages mem 1 in
  let w_pa = Mem.alloc_pages mem 1 in
  let out_pa = Mem.alloc_pages mem 1 in
  let cmd = mk_region ~name:"cmd" ~usage:Session.Cmd ~pa:cmd_pa ~bytes:256 in
  let w = mk_region ~name:"w" ~usage:Session.Weights ~pa:w_pa ~bytes:4096 in
  let out = mk_region ~name:"out" ~usage:Session.Output ~pa:out_pa ~bytes:2048 in
  Memsync.register_region ms cmd;
  Memsync.register_region ms w;
  Memsync.register_region ms out;
  Grt_gpu.Job_desc.write mem ~pa:cmd_pa
    {
      Grt_gpu.Job_desc.op = Grt_gpu.Shader.Fc;
      shader_va = 0L;
      input_va = w.Memsync.va;
      input2_va = 0L;
      bias_va = 0L;
      output_va = out.Memsync.va;
      params = Grt_gpu.Job_desc.default_params;
      next_va = 0L;
    };
  let d1 = Memsync.naive_down_bytes ms mem ~chain_va:cmd.Memsync.va in
  check Alcotest.int "first job ships weights+output" (4096 + 2048) d1;
  let d2 = Memsync.naive_down_bytes ms mem ~chain_va:cmd.Memsync.va in
  check Alcotest.int "second job ships nothing new" 0 d2;
  let u = Memsync.naive_up_bytes ms mem ~chain_va:cmd.Memsync.va in
  check Alcotest.int "output comes back every job" 2048 u

(* ---- Gpushim ---- *)

let mk_gpushim () =
  let clock = Clock.create () in
  Gpushim.create ~clock ~sku:Sku.g71_mp8 ~session_salt:9L
    ~cfg:(Mode.default_config Mode.Ours_mds) ()

let gpushim_requires_isolation () =
  let g = mk_gpushim () in
  (match Gpushim.apply_accesses g [| Gpushim.W_read Regs.gpu_id |] with
  | _ -> Alcotest.fail "worked without isolation"
  | exception Gpushim.Not_isolated -> ());
  Gpushim.isolate g;
  check Alcotest.bool "isolated" true (Gpushim.isolated g);
  check (Alcotest.list Alcotest.int64) "read works when isolated"
    [ Sku.g71_mp8.Sku.gpu_id ]
    (Array.to_list (Gpushim.apply_accesses g [| Gpushim.W_read Regs.gpu_id |]))

let gpushim_tzasc_blocks_normal_world () =
  let g = mk_gpushim () in
  Gpushim.isolate g;
  (match Grt_tee.Worlds.check_access (Gpushim.worlds g) Grt_tee.Worlds.Normal ~name:"gpu-mmio" with
  | () -> Alcotest.fail "normal world touched locked GPU"
  | exception Grt_tee.Worlds.Access_denied _ -> ());
  Gpushim.release g;
  Grt_tee.Worlds.check_access (Gpushim.worlds g) Grt_tee.Worlds.Normal ~name:"gpu-mmio"

let gpushim_batch_refs () =
  (* Listing 1(a) on the wire: read MMU_CONFIG, then write back
     (batch_value | 0x10) — resolved incrementally while applying. *)
  let g = mk_gpushim () in
  Gpushim.isolate g;
  let quirk = Sku.g71_mp8.Sku.quirk_mmu_config in
  let results =
    Gpushim.apply_accesses g
      [|
        Gpushim.W_read Regs.mmu_config;
        Gpushim.W_write (Regs.mmu_config, Gpushim.Bop (Sexpr.Or, Gpushim.Batch 0, Gpushim.Lit 0x10L));
        Gpushim.W_read Regs.mmu_config;
      |]
  in
  (match Array.to_list results with
  | [ first; second ] ->
    check Alcotest.int64 "first read is reset value" quirk first;
    check Alcotest.int64 "second read sees resolved write" (Int64.logor quirk 0x10L) second
  | _ -> Alcotest.fail "expected two read results");
  (* Forward references must be rejected. *)
  match
    Gpushim.apply_accesses g [| Gpushim.W_write (Regs.mmu_config, Gpushim.Batch 0) |]
  with
  | _ -> Alcotest.fail "forward batch reference accepted"
  | exception Failure _ -> ()

let gpushim_poll_and_reset () =
  let g = mk_gpushim () in
  Gpushim.isolate g;
  (* Kick a power-up, then offload-poll for readiness. *)
  ignore (Gpushim.apply_accesses g [| Gpushim.W_write (Regs.shader_pwron_lo, Gpushim.Lit 0xFFL) |]);
  (match
     Gpushim.run_poll g ~reg:Regs.shader_ready_lo ~mask:0xFFL ~cond:Regs.Bits_set
       ~max_iters:100000 ~spin_ns:1000L
   with
  | Some (iters, value) ->
    check Alcotest.int64 "poll result" 0xFFL value;
    check Alcotest.bool "took iterations" true (iters > 1)
  | None -> Alcotest.fail "poll timed out");
  Gpushim.reset_gpu g;
  check Alcotest.int64 "reset cleared cores" 0L
    (Device.read_reg (Gpushim.device g) Regs.shader_ready_lo)

(* ---- Drivershim mechanisms (through the real driver) ---- *)

type rig = {
  shim : Drivershim.t;
  gpushim : Gpushim.t;
  drv : Kbase.t;
  cloud_mem : Mem.t;
  counters : Metrics.t;
  clock : Clock.t;
}

let mk_rig ?(mode = Mode.Ours_md) ?history ?config () =
  let clock = Clock.create () in
  let counters = Metrics.create () in
  let link = Link.create ~clock ~metrics:counters Profile.wifi in
  let cfg = match config with Some c -> c | None -> Mode.default_config mode in
  let gpushim = Gpushim.create ~clock ~sku:Sku.g71_mp8 ~metrics:counters ~session_salt:4L ~cfg () in
  Gpushim.isolate gpushim;
  let cloud_mem = Mem.create () in
  let shim = Drivershim.create ~cfg ~link ~gpushim ~cloud_mem ~metrics:counters ?history () in
  let drv = Kbase.create ~backend:(Drivershim.backend shim) ~mem:cloud_mem ~coherency_ace:true in
  { shim; gpushim; drv; cloud_mem; counters; clock }

let accesses_of r =
  Metrics.get_int r.counters Metrics.Reg_reads + Metrics.get_int r.counters Metrics.Reg_writes

let drivershim_defers_and_batches () =
  let r = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let accesses = accesses_of r in
  let commits = Metrics.get_int r.counters Metrics.Commits_total in
  check Alcotest.bool "some deferral happened: a commit carried several accesses" true
    (Metrics.get_int r.counters Metrics.Commits_accesses > commits);
  check Alcotest.bool "batching: fewer commits than accesses" true (commits < accesses)

let drivershim_symbolic_quirk_reaches_client () =
  (* The Listing 1(a) data dependency, end to end: after init, the CLIENT
     device must hold MMU_CONFIG = quirk | SNOOP_DISPARITY even though the
     value travelled as a symbolic expression. *)
  let r = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let v = Device.read_reg (Gpushim.device r.gpushim) Regs.mmu_config in
  check Alcotest.int64 "resolved on client"
    (Int64.logor Sku.g71_mp8.Sku.quirk_mmu_config 0x10L)
    v

let drivershim_naive_one_rtt_per_access () =
  let r = mk_rig ~mode:Mode.Naive () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let accesses = accesses_of r in
  let rtts = Metrics.get_int r.counters Metrics.Net_blocking_rtts in
  (* every register access is one blocking round trip (plus sync traffic) *)
  check Alcotest.bool "rtts >= accesses" true (rtts >= accesses)

let drivershim_md_fewer_rtts_than_naive () =
  let naive = mk_rig ~mode:Mode.Naive () in
  Kbase.init naive.drv;
  Drivershim.finalize naive.shim;
  let md = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init md.drv;
  Drivershim.finalize md.shim;
  check Alcotest.bool "deferral cuts RTTs" true
    (Metrics.get_int md.counters Metrics.Net_blocking_rtts
    < Metrics.get_int naive.counters Metrics.Net_blocking_rtts)

let drivershim_speculation_warms_up () =
  let history = Drivershim.fresh_history () in
  let run () =
    let r = mk_rig ~mode:Mode.Ours_mds ~history () in
    Kbase.init r.drv;
    Drivershim.finalize r.shim;
    ( Metrics.get_int r.counters Metrics.Commits_speculated,
      Metrics.get_int r.counters Metrics.Net_blocking_rtts )
  in
  let spec1, rtts1 = run () in
  let _ = run () in
  let _ = run () in
  let spec4, rtts4 = run () in
  check Alcotest.bool "cold run speculates little" true (spec1 <= spec4);
  check Alcotest.bool "warm run speculates" true (spec4 > 0);
  check Alcotest.bool "warm run has fewer blocking RTTs" true (rtts4 < rtts1)

let drivershim_speculated_log_matches_sync_log () =
  (* Determinism: the interaction log of a fully-warmed speculative run must
     equal the log of a deferral-only run (same stimuli, same responses),
     modulo the nondeterministic registers. *)
  let history = Drivershim.fresh_history () in
  let run mode =
    let r = mk_rig ~mode ~history () in
    Kbase.init r.drv;
    Drivershim.finalize r.shim;
    List.filter_map
      (function
        | Recording.Reg_write { reg; value } -> Some (`W, reg, value)
        | Recording.Reg_read { reg; value; verify = true } -> Some (`R, reg, value)
        | _ -> None)
      (Drivershim.entries r.shim)
  in
  let md = run Mode.Ours_md in
  for _ = 1 to 3 do
    ignore (run Mode.Ours_mds)
  done;
  let mds = run Mode.Ours_mds in
  check Alcotest.bool "same verified interaction sequence" true (md = mds)

let drivershim_mispredict_detected () =
  let history = Drivershim.fresh_history () in
  for _ = 1 to 3 do
    let r = mk_rig ~mode:Mode.Ours_mds ~history () in
    Kbase.init r.drv;
    Drivershim.finalize r.shim
  done;
  let r = mk_rig ~mode:Mode.Ours_mds ~history () in
  Drivershim.inject_fault_after r.shim 2;
  match
    Kbase.init r.drv;
    Drivershim.finalize r.shim
  with
  | () -> Alcotest.fail "injected wrong value not detected"
  | exception Drivershim.Mispredict _ -> ()
  | exception Fun.Finally_raised (Drivershim.Mispredict _) -> ()

let drivershim_poll_offload_one_message () =
  let cfg = Mode.default_config Mode.Ours_mds in
  let r = mk_rig ~config:cfg ~mode:Mode.Ours_mds () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  check Alcotest.bool "polls offloaded" true (Metrics.get_int r.counters Metrics.Poll_offloaded > 0);
  check Alcotest.int "offloaded = instances"
    (Metrics.get_int r.counters Metrics.Poll_instances)
    (Metrics.get_int r.counters Metrics.Poll_offloaded)

let drivershim_entries_replayable_order () =
  (* The log must put the job-start Mem_load before the START write. *)
  let r = mk_rig ~mode:Mode.Ours_md () in
  Kbase.init r.drv;
  Drivershim.finalize r.shim;
  let entries = Drivershim.entries r.shim in
  (* Init produces no Mem_load (no jobs), but must contain the soft reset
     command write before the reset poll. *)
  let rec find_order = function
    | Recording.Reg_write { reg; value } :: rest
      when reg = Regs.gpu_command && Int64.equal value Regs.cmd_soft_reset ->
      let rec has_poll = function
        | Recording.Poll { reg; _ } :: _ when reg = Regs.gpu_irq_rawstat -> true
        | _ :: rest -> has_poll rest
        | [] -> false
      in
      has_poll rest
    | _ :: rest -> find_order rest
    | [] -> false
  in
  check Alcotest.bool "reset write precedes its poll" true (find_order entries)

(* ---- Wire ---- *)

let wire_site_key_memo_checks_triple () =
  (* The memo hash folds fn and trigger with no separator, so these two
     sites share a hash; each must still get its own key and id. *)
  let empty = Grt.Wire.create_batch () in
  let k1 = Grt.Wire.site_key ~fn:"ab" ~trigger:"c" empty in
  let k2 = Grt.Wire.site_key ~fn:"a" ~trigger:"bc" empty in
  check Alcotest.bool "first key" true (String.starts_with ~prefix:"ab@c#" k1.Grt.Wire.key);
  check Alcotest.bool "second key" true (String.starts_with ~prefix:"a@bc#" k2.Grt.Wire.key);
  check Alcotest.bool "distinct ids" true (k1.Grt.Wire.id <> k2.Grt.Wire.id);
  let again = Grt.Wire.site_key ~fn:"ab" ~trigger:"c" empty in
  check Alcotest.string "first key again" k1.Grt.Wire.key again.Grt.Wire.key;
  check Alcotest.int "first id again" k1.Grt.Wire.id again.Grt.Wire.id

(* ---- Spec_history ---- *)

(* The per-site ring against the newest-first list it replaced, over
   random scripts of observations under varying [k] (the service shares one
   history across sessions whose configs may differ), forgets, confidence
   queries and epoch starts: every query and the cross-hit count agree. *)
module History_model = struct
  type entry = { values : int64 array; epoch : int }
  type t = { tbl : (int, entry list) Hashtbl.t; mutable epoch : int; mutable cross_hits : int }

  let create () = { tbl = Hashtbl.create 8; epoch = 0; cross_hits = 0 }
  let entries t site = Option.value ~default:[] (Hashtbl.find_opt t.tbl site)

  let observe t ~k site values =
    let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest in
    Hashtbl.replace t.tbl site (take (max 1 k) ({ values; epoch = t.epoch } :: entries t site))

  let confident t ~k site =
    let es = entries t site in
    if List.length es < k then None
    else
      match es with
      | first :: rest when List.for_all (fun e -> e.values = first.values) rest ->
        if List.exists (fun (e : entry) -> e.epoch < t.epoch) es then t.cross_hits <- t.cross_hits + 1;
        Some first.values
      | _ -> None
end

type history_op =
  | Observe of int * int * int64 array
  | Forget of int
  | Confident of int * int
  | Epoch

let gen_history_op =
  QCheck2.Gen.(
    let site = int_bound 3 and k = int_range 0 5 in
    let values = oneofl [ [||]; [| 0L |]; [| 1L |]; [| 0L; 1L |] ] in
    frequency
      [
        (6, map3 (fun k s v -> Observe (k, s, v)) k site values);
        (1, map (fun s -> Forget s) site);
        (4, map2 (fun k s -> Confident (k, s)) k site);
        (1, return Epoch);
      ])

let spec_history_matches_list_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:1000 ~name:"per-site rings answer as the newest-first lists"
       QCheck2.Gen.(list_size (int_bound 200) gen_history_op)
       (fun ops ->
         let h = Grt.Spec_history.create () and m = History_model.create () in
         List.for_all
           (function
             | Observe (k, site, v) ->
               Grt.Spec_history.observe h ~k site v;
               History_model.observe m ~k site v;
               true
             | Forget site ->
               Grt.Spec_history.forget h site;
               Hashtbl.remove m.History_model.tbl site;
               true
             | Confident (k, site) ->
               Grt.Spec_history.confident h ~k site = History_model.confident m ~k site
               && Grt.Spec_history.cross_hits h = m.History_model.cross_hits
             | Epoch ->
               Grt.Spec_history.new_epoch h;
               m.History_model.epoch <- m.History_model.epoch + 1;
               true)
           ops))

(* ---- Orchestrate ---- *)

let record_rejects_config_for_another_mode () =
  let record ~mode config =
    ignore
      (Grt.Orchestrate.record ~config ~profile:Profile.wifi ~mode ~sku:Sku.g71_mp8
         ~net:Grt_mlfw.Zoo.mnist ~seed:42L ())
  in
  List.iter
    (fun (mode, cfg_mode) ->
      match record ~mode (Mode.default_config cfg_mode) with
      | () -> Alcotest.failf "recorded %s under a %s config" (Mode.name mode) (Mode.name cfg_mode)
      | exception Invalid_argument _ -> ())
    [ (Mode.Naive, Mode.Ours_mds); (Mode.Ours_mds, Mode.Ours_md) ]

let () =
  Alcotest.run "grt_core"
    [
      ( "recording",
        [
          Alcotest.test_case "roundtrip" `Quick recording_roundtrip;
          Alcotest.test_case "sign/verify" `Quick recording_sign_verify;
          Alcotest.test_case "tamper rejected" `Quick recording_tamper_rejected;
          Alcotest.test_case "counts and slots" `Quick recording_counts_and_slots;
          Alcotest.test_case "garbage rejected" `Quick recording_garbage_rejected;
          Alcotest.test_case "one-byte fields decode strictly" `Quick recording_decoder_strict;
          Alcotest.test_case "verify memo admits on second sight" `Quick
            recording_verify_memo_admits_on_second_sight;
          Alcotest.test_case "resident verdicts" `Quick recording_resident_verdicts;
          recording_qcheck_roundtrip;
          recording_qcheck_signature;
          recording_qcheck_sign_matches_reference;
        ] );
      ( "memsync",
        [
          Alcotest.test_case "meta classification" `Quick memsync_meta_classification;
          Alcotest.test_case "pt pages are meta" `Quick memsync_pt_pages_are_meta;
          Alcotest.test_case "sync and baseline" `Quick memsync_sync_and_baseline;
          Alcotest.test_case "apply and note" `Quick memsync_apply_and_note;
          Alcotest.test_case "naive ships once" `Quick memsync_naive_ship_once;
        ] );
      ( "gpushim",
        [
          Alcotest.test_case "requires isolation" `Quick gpushim_requires_isolation;
          Alcotest.test_case "TZASC blocks normal world" `Quick gpushim_tzasc_blocks_normal_world;
          Alcotest.test_case "batch references" `Quick gpushim_batch_refs;
          Alcotest.test_case "poll and reset" `Quick gpushim_poll_and_reset;
        ] );
      ( "drivershim",
        [
          Alcotest.test_case "defers and batches" `Quick drivershim_defers_and_batches;
          Alcotest.test_case "symbolic quirk reaches client" `Quick
            drivershim_symbolic_quirk_reaches_client;
          Alcotest.test_case "naive: RTT per access" `Quick drivershim_naive_one_rtt_per_access;
          Alcotest.test_case "deferral cuts RTTs" `Quick drivershim_md_fewer_rtts_than_naive;
          Alcotest.test_case "speculation warms up" `Quick drivershim_speculation_warms_up;
          Alcotest.test_case "speculated log = sync log" `Quick
            drivershim_speculated_log_matches_sync_log;
          Alcotest.test_case "mispredict detected" `Quick drivershim_mispredict_detected;
          Alcotest.test_case "poll offload" `Quick drivershim_poll_offload_one_message;
          Alcotest.test_case "replayable entry order" `Quick drivershim_entries_replayable_order;
        ] );
      ("wire", [ Alcotest.test_case "site-key memo checks the triple" `Quick wire_site_key_memo_checks_triple ]);
      ("history", [ spec_history_matches_list_model ]);
      ( "orchestrate",
        [
          Alcotest.test_case "record rejects a config for another mode" `Quick
            record_rejects_config_for_another_mode;
        ] );
    ]
