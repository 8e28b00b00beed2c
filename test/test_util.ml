(* Unit and property tests for Grt_util: RNG, byte buffers, hashing, the
   range coder, the delta codec and symbolic expressions. *)

module Rng = Grt_util.Rng
module Byte_buf = Grt_util.Byte_buf
module Hashing = Grt_util.Hashing
module Range_coder = Grt_util.Range_coder
module Delta = Grt_util.Delta
module Sexpr = Grt_util.Sexpr

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- Rng ---- *)

let rng_deterministic () =
  let a = Rng.create ~seed:1234L and b = Rng.create ~seed:1234L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create ~seed:1L and b = Rng.create ~seed:2L in
  check Alcotest.bool "different streams" false (Int64.equal (Rng.next64 a) (Rng.next64 b))

let rng_int_bounds () =
  let r = Rng.create ~seed:99L in
  for _ = 1 to 10_000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let rng_int_rejects_nonpositive () =
  let r = Rng.create ~seed:1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let rng_float_bounds () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.failf "out of range: %f" v
  done

let rng_int64_range () =
  let r = Rng.create ~seed:5L in
  for _ = 1 to 1000 do
    let v = Rng.int64_range r (-10L) 10L in
    if Int64.compare v (-10L) < 0 || Int64.compare v 10L >= 0 then
      Alcotest.failf "out of range: %Ld" v
  done

let rng_copy_independent () =
  let a = Rng.create ~seed:7L in
  ignore (Rng.next64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy continues identically" (Rng.next64 a) (Rng.next64 b)

let rng_split_diverges () =
  let a = Rng.create ~seed:7L in
  let b = Rng.split a in
  check Alcotest.bool "split stream differs" false (Int64.equal (Rng.next64 a) (Rng.next64 b))

let rng_bytes_len () =
  let r = Rng.create ~seed:3L in
  check Alcotest.int "bytes length" 133 (Bytes.length (Rng.bytes r 133))

(* ---- Byte_buf ---- *)

let byte_buf_primitives () =
  let b = Byte_buf.create () in
  Byte_buf.add_u8 b 0xAB;
  Byte_buf.add_u16 b 0xBEEF;
  Byte_buf.add_u32 b 0xDEADBEEF;
  Byte_buf.add_i64 b (-42L);
  Byte_buf.add_string b "hello";
  let r = Byte_buf.Reader.of_bytes (Byte_buf.contents b) in
  check Alcotest.int "u8" 0xAB (Byte_buf.Reader.u8 r);
  check Alcotest.int "u16" 0xBEEF (Byte_buf.Reader.u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Byte_buf.Reader.u32 r);
  check Alcotest.int64 "i64" (-42L) (Byte_buf.Reader.i64 r);
  check Alcotest.string "string" "hello" (Byte_buf.Reader.string r);
  check Alcotest.int "fully consumed" 0 (Byte_buf.Reader.remaining r)

let byte_buf_varint_roundtrip () =
  List.iter
    (fun v ->
      let b = Byte_buf.create () in
      Byte_buf.add_varint b v;
      let r = Byte_buf.Reader.of_bytes (Byte_buf.contents b) in
      check Alcotest.int (Printf.sprintf "varint %d" v) v (Byte_buf.Reader.varint r))
    [ 0; 1; 127; 128; 255; 300; 16383; 16384; 1_000_000; max_int / 2 ]

let byte_buf_varint_negative () =
  let b = Byte_buf.create () in
  Alcotest.check_raises "negative rejected" (Invalid_argument "Byte_buf.add_varint: negative")
    (fun () -> Byte_buf.add_varint b (-1))

let byte_buf_truncation () =
  let r = Byte_buf.Reader.of_bytes (Bytes.create 2) in
  ignore (Byte_buf.Reader.u16 r);
  Alcotest.check_raises "truncated" (Failure "Byte_buf.Reader: truncated input") (fun () ->
      ignore (Byte_buf.Reader.u8 r))

let byte_buf_growth () =
  let b = Byte_buf.create ~capacity:1 () in
  for i = 0 to 9999 do
    Byte_buf.add_u8 b (i land 0xFF)
  done;
  check Alcotest.int "length" 10000 (Byte_buf.length b);
  let c = Byte_buf.contents b in
  check Alcotest.int "content survives growth" 0x0F (Char.code (Bytes.get c 0x0F))

let byte_buf_clear () =
  let b = Byte_buf.create () in
  Byte_buf.add_u32 b 7;
  Byte_buf.clear b;
  check Alcotest.int "cleared" 0 (Byte_buf.length b)

(* ---- Hashing ---- *)

let hashing_stable () =
  check Alcotest.int64 "fnv1a of empty" (Hashing.fnv1a_string "")
    (Hashing.fnv1a_bytes Bytes.empty);
  check Alcotest.bool "distinct inputs differ" false
    (Int64.equal (Hashing.fnv1a_string "abc") (Hashing.fnv1a_string "abd"))

let hashing_sub_consistent () =
  let b = Bytes.of_string "hello world" in
  check Alcotest.int64 "sub = whole" (Hashing.fnv1a_bytes b)
    (Hashing.fnv1a_sub b ~pos:0 ~len:(Bytes.length b));
  check Alcotest.bool "different slice differs" false
    (Int64.equal (Hashing.fnv1a_sub b ~pos:0 ~len:5) (Hashing.fnv1a_sub b ~pos:6 ~len:5))

let hashing_published_vectors () =
  List.iter
    (fun (s, h) ->
      let b = Bytes.of_string s in
      check Alcotest.int64 (Printf.sprintf "fnv1a_bytes %S" s) h (Hashing.fnv1a_bytes b);
      check Alcotest.int64 (Printf.sprintf "fnv1a_sub %S" s) h
        (Hashing.fnv1a_sub b ~pos:0 ~len:(Bytes.length b));
      check Alcotest.int64 (Printf.sprintf "reference %S" s) h (Fnv_reference.bytes b))
    [ ("", 0xcbf29ce484222325L); ("a", 0xaf63dc4c8601ec8cL); ("foobar", 0x85944171f73967e8L) ]

(* [pos + len] wraps for [len = max_int]: the check must not add them. *)
let hashing_sub_rejects_out_of_bounds () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      (match Hashing.fnv1a_sub b ~pos ~len with
      | _ -> Alcotest.failf "fnv1a_sub accepted ~pos:%d ~len:%d" pos len
      | exception Invalid_argument _ -> ());
      match Hashing.quick_sub b ~pos ~len with
      | _ -> Alcotest.failf "quick_sub accepted ~pos:%d ~len:%d" pos len
      | exception Invalid_argument _ -> ())
    [ (1, max_int); (max_int, 1); (max_int, max_int); (-1, 4); (0, -1); (0, 17); (17, 0); (16, 1) ]

(* Buffers for the word-stepping FNV loop: noise, sparse bytes, all zeros,
   and long zero runs broken by a few non-zero bytes. *)
let gen_fnv_input =
  QCheck2.Gen.(
    let rng seed = Rng.create ~seed:(Int64.of_int seed) in
    let len = int_bound 600 in
    let noise n = map (fun seed -> Rng.bytes (rng seed) n) int in
    let sparse n =
      map
        (fun seed ->
          let r = rng seed in
          Bytes.init n (fun _ -> if Rng.int r 20 = 0 then Char.chr (1 + Rng.int r 255) else '\000'))
        int
    in
    let zero_runs n =
      map
        (fun seed ->
          let r = rng seed and b = Bytes.make n '\000' in
          if n > 0 then
            for _ = 1 to Rng.int r 5 do
              Bytes.set b (Rng.int r n) (Char.chr (1 + Rng.int r 255))
            done;
          b)
        int
    in
    oneof
      [
        len >>= noise;
        len >>= sparse;
        map (fun n -> Bytes.make n '\000') len;
        int_range 1000 5000 >>= zero_runs;
      ])

let hashing_qcheck_matches_reference =
  qtest ~count:300 "fnv1a steps over zero words with the reference's digest"
    QCheck2.Gen.(pair gen_fnv_input (map Int64.of_int int))
    (fun (b, seed) ->
      let n = Bytes.length b in
      let range = List.init 8 Fun.id in
      Int64.equal (Hashing.fnv1a_bytes b) (Fnv_reference.bytes b)
      && Int64.equal (Hashing.fnv1a_bytes ~seed b) (Fnv_reference.bytes ~seed b)
      (* every start offset mod 8, every tail length after the words *)
      && List.for_all
           (fun pos ->
             List.for_all
               (fun tail ->
                 let len = (max 0 ((n - pos - tail) / 8) * 8) + tail in
                 pos + len > n
                 || Int64.equal (Hashing.fnv1a_sub b ~pos ~len) (Fnv_reference.sub b ~pos ~len))
               range)
           range)

let hashing_hmac_keys () =
  let data = Bytes.of_string "payload" in
  check Alcotest.bool "different keys differ" false
    (Int64.equal (Hashing.hmac ~key:"k1" data) (Hashing.hmac ~key:"k2" data))

let crc32_known () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  check Alcotest.int32 "crc32 check value" 0xCBF43926l
    (Hashing.crc32 (Bytes.of_string "123456789"))

let crc32_detects_flip () =
  let b = Bytes.of_string "some frame payload" in
  let c1 = Hashing.crc32 b in
  Bytes.set b 3 'X';
  check Alcotest.bool "flip detected" false (Int32.equal c1 (Hashing.crc32 b))

(* ---- Range coder ---- *)

let rc_roundtrip_cases () =
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      let enc = Range_coder.encode b in
      check Alcotest.bytes ("roundtrip " ^ String.escaped (String.sub s 0 (min 8 (String.length s))))
        b (Range_coder.decode enc))
    [
      "";
      "a";
      "aaaa";
      "hello world";
      String.make 10_000 '\000';
      String.init 256 Char.chr;
      String.concat "" (List.init 64 (fun i -> Printf.sprintf "line %d\n" i));
    ]

let rc_compresses_sparse () =
  let b = Bytes.make 4096 '\000' in
  let ratio = float_of_int (Bytes.length (Range_coder.encode b)) /. 4096. in
  if ratio > 0.05 then Alcotest.failf "sparse page should compress hard, got %.3f" ratio

let rc_random_data_no_explosion () =
  let r = Rng.create ~seed:11L in
  let b = Rng.bytes r 4096 in
  let enc = Range_coder.encode b in
  if Bytes.length enc > 4096 + 256 then
    Alcotest.failf "incompressible data exploded: %d" (Bytes.length enc)

let rc_qcheck_roundtrip =
  qtest "range coder roundtrips arbitrary bytes"
    QCheck2.Gen.(string_size (int_bound 3000))
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (Range_coder.decode (Range_coder.encode b)))

let rc_qcheck_sparse =
  qtest ~count:50 "range coder roundtrips sparse pages"
    QCheck2.Gen.(list_size (int_bound 64) (pair (int_bound 4095) (int_bound 255)))
    (fun edits ->
      let b = Bytes.make 4096 '\000' in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
      Bytes.equal b (Range_coder.decode (Range_coder.encode b)))

(* Shaped buffers for codec fuzzing: the degenerate inputs memsync traffic
   rarely produces — empty, single-byte, all-equal runs, seeded
   incompressible noise — alongside arbitrary strings. *)
let gen_shaped_bytes =
  QCheck2.Gen.(
    oneof
      [
        return Bytes.empty;
        map (fun c -> Bytes.make 1 c) char;
        map2 (fun n c -> Bytes.make n c) (int_range 1 8192) char;
        map2
          (fun seed n -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n)
          int (int_range 1 8192);
        map Bytes.of_string (string_size (int_bound 4096));
      ])

let rc_qcheck_shaped =
  qtest ~count:300 "range coder roundtrips shaped buffers"
    gen_shaped_bytes
    (fun b ->
      let enc = Range_coder.encode b in
      Bytes.equal b (Range_coder.decode enc)
      (* Incompressible input must not blow up the wire either. *)
      && Bytes.length enc <= Bytes.length b + 256)

(* Differential against [Rc_reference], the kernels as they were before
   their state moved into locals: coded bytes must be identical, and so
   must decoding, on valid and on damaged blobs alike. The one allowed
   difference is the length guard, which rejects (with [Failure]) bodies
   too short for the length they declare. *)
let gen_rc_input =
  QCheck2.Gen.(
    let seeded n = map (fun seed -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n) int in
    let sparse n =
      map
        (fun seed ->
          let r = Rng.create ~seed:(Int64.of_int seed) in
          Bytes.init n (fun _ -> if Rng.int r 100 = 0 then Char.chr (1 + Rng.int r 255) else '\000'))
        int
    in
    (* The model total first reaches the rescale threshold after 2720
       symbols. *)
    let len = oneof [ int_bound 8192; return 4096; int_range 2700 2740 ] in
    oneof
      [
        len >>= seeded;
        map2 (fun n c -> Bytes.make n c) len char;
        len >>= sparse;
      ])

let rc_qcheck_matches_reference =
  qtest ~count:300 "range coder codes and decodes exactly as the reference" gen_rc_input (fun b ->
      let enc = Range_coder.encode b in
      Bytes.equal enc (Rc_reference.encode_raw b)
      && Bytes.equal (Range_coder.decode enc) (Rc_reference.decode_raw enc))

(* Stats of one codec memo ("rc.encode" or "rc.decode"). *)
let rc_stats name =
  let module M = Grt_util.Memo_stats in
  match List.find_opt (fun c -> M.name c = name) (M.all ()) with
  | Some c -> M.snapshot c
  | None -> Alcotest.failf "%s never registered" name

let rc_bound name =
  match (rc_stats name).Grt_util.Memo_stats.s_bound_bytes with
  | Some b -> b
  | None -> Alcotest.failf "%s declares no byte bound" name

let trimmed_length b =
  let i = ref (Bytes.length b) in
  while !i > 0 && Bytes.get b (!i - 1) = '\000' do
    decr i
  done;
  !i

(* Inputs with their reference codings, enough that their memo entries
   carry at least three times [bound] in payload alone (the plain bytes up
   to the last non-zero one, plus the coded bytes), so one pass over them
   rotates a memo bounded by [bound] several times. Each base input also
   comes with one and with eight extra zero bytes (entries keep the plain
   bytes only up to the last non-zero byte, plus their length), and
   all-zero inputs of many lengths share the empty prefix. *)
let rc_stream r ~bound =
  let base () =
    let n = 1 + Rng.int r 1500 in
    Bytes.init n (fun _ -> if Rng.int r 4 = 0 then Char.chr (1 + Rng.int r 255) else '\000')
  in
  let payload = ref 0 and acc = ref [] in
  let push b =
    let coded = Rc_reference.encode_raw b in
    payload := !payload + trimmed_length b + Bytes.length coded;
    acc := (Bytes.to_string b, coded) :: !acc
  in
  List.iter push (List.init 300 (fun n -> Bytes.make n '\000'));
  while !payload < 3 * bound do
    let b = base () in
    List.iter push [ b; Bytes.cat b (Bytes.make 1 '\000'); Bytes.cat b (Bytes.make 8 '\000') ]
  done;
  Array.of_list (List.rev !acc)

(* Runs [f] over [0, n) three times, in a new order each time. *)
let three_shuffled_passes r n f =
  for pass = 0 to 2 do
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Rng.int r (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    Array.iter (f pass) order
  done

(* Over a stream that rotates the memo several times, most entries are
   dropped at least once, and the resident bytes stay within the bound. *)
let check_rotated name ~bound ~evicted_before ~inputs =
  let s = rc_stats name in
  if s.Grt_util.Memo_stats.s_evictions - evicted_before < inputs / 3 then
    Alcotest.failf "%s dropped %d entries over %d inputs: the stream never rotated it" name
      (s.Grt_util.Memo_stats.s_evictions - evicted_before)
      inputs;
  if s.Grt_util.Memo_stats.s_resident_bytes > bound then
    Alcotest.failf "%s holds %d bytes, above its %d-byte bound" name
      s.Grt_util.Memo_stats.s_resident_bytes bound

(* The encode memo against the reference over a stream sized from the
   memo's byte bound (see [rc_stream]). Inputs are re-encoded in a new
   order on later passes, after the caller has scribbled over both the
   buffer it passed and the bytes it got back: neither may reach a later
   hit. *)
let rc_memo_matches_reference_across_generations () =
  let r = Rng.create ~seed:2024L in
  let bound = rc_bound "rc.encode" in
  let cases = rc_stream r ~bound in
  let evicted_before = (rc_stats "rc.encode").Grt_util.Memo_stats.s_evictions in
  three_shuffled_passes r (Array.length cases) (fun pass k ->
      let input, expected = cases.(k) in
      let buf = Bytes.of_string input in
      let coded = Range_coder.encode buf in
      if not (Bytes.equal coded expected) then
        Alcotest.failf "pass %d: encode of a %d-byte input differs from the reference" pass
          (String.length input);
      Bytes.fill buf 0 (Bytes.length buf) '\001';
      Bytes.fill coded 0 (Bytes.length coded) '\255');
  check_rotated "rc.encode" ~bound ~evicted_before ~inputs:(Array.length cases);
  (* the memo kept its own copy of an input the caller then overwrote *)
  let input = Bytes.of_string "no zero tail: the memo keeps every byte" in
  let original = Bytes.copy input in
  ignore (Range_coder.encode input);
  Bytes.fill input 0 (Bytes.length input) '\000';
  let hits = (rc_stats "rc.encode").Grt_util.Memo_stats.s_hits in
  check Alcotest.bytes "re-encode after the caller's overwrite" (Rc_reference.encode_raw original)
    (Range_coder.encode original);
  check Alcotest.int "and it is a hit" (hits + 1) (rc_stats "rc.encode").Grt_util.Memo_stats.s_hits

(* The decode memo against [Rc_reference.decode_raw] over a stream sized
   from its own bound, with the caller scribbling over the body it passed
   and the bytes it got back. Only an earlier decode serves a hit (the
   encoder never seeds the table), and a damaged body raises every time:
   nothing is cached for it. *)
let rc_decode_memo_matches_reference_across_generations () =
  let module M = Grt_util.Memo_stats in
  let r = Rng.create ~seed:2025L in
  let bound = rc_bound "rc.decode" in
  let cases =
    Array.map (fun (_, coded) -> (Bytes.to_string coded, Rc_reference.decode_raw coded)) (rc_stream r ~bound)
  in
  let evicted_before = (rc_stats "rc.decode").M.s_evictions in
  three_shuffled_passes r (Array.length cases) (fun pass k ->
      let body, expected = cases.(k) in
      let buf = Bytes.of_string body in
      let plain = Range_coder.decode buf in
      if not (Bytes.equal plain expected) then
        Alcotest.failf "pass %d: decode of a %d-byte body differs from the reference" pass
          (String.length body);
      Bytes.fill buf 0 (Bytes.length buf) '\255';
      Bytes.fill plain 0 (Bytes.length plain) '\001');
  check_rotated "rc.decode" ~bound ~evicted_before ~inputs:(Array.length cases);
  let fresh = Bytes.of_string "encoded here, never decoded before" in
  let coded = Range_coder.encode fresh in
  let s = rc_stats "rc.decode" in
  check Alcotest.bytes "first decode" fresh (Range_coder.decode coded);
  check Alcotest.int "an encode does not seed the decode memo" (s.M.s_misses + 1)
    (rc_stats "rc.decode").M.s_misses;
  let hit = Range_coder.decode coded in
  check Alcotest.bytes "second decode" fresh hit;
  check Alcotest.int "an earlier decode does" (s.M.s_hits + 1) (rc_stats "rc.decode").M.s_hits;
  Bytes.fill hit 0 (Bytes.length hit) '\001';
  check Alcotest.bytes "a hit after the caller scribbled over the last one" fresh
    (Range_coder.decode coded);
  let short = Bytes.sub coded 0 (Range_coder.min_coded_length (Bytes.length fresh) - 1) in
  let s = rc_stats "rc.decode" in
  for _ = 1 to 2 do
    match Range_coder.decode short with
    | _ -> Alcotest.fail "a body shorter than its declared length decoded"
    | exception Failure _ -> ()
  done;
  let s' = rc_stats "rc.decode" in
  check Alcotest.int "a damaged body misses every time" (s.M.s_misses + 2) s'.M.s_misses;
  check Alcotest.int "and is never kept" s.M.s_resident s'.M.s_resident

(* Outcome of a decoder on a damaged blob, exceptions included. *)
let decode_outcome f blob = match f blob with v -> Ok v | exception Failure _ -> Error ()

let declared_length blob =
  match Byte_buf.Reader.varint (Byte_buf.Reader.of_bytes blob) with
  | n -> Some n
  | exception Failure _ -> None

let rc_qcheck_damaged_matches_reference =
  qtest ~count:300 "range coder decodes damaged blobs like the reference"
    QCheck2.Gen.(triple gen_rc_input bool (pair nat (int_bound 7)))
    (fun (b, flip, (at, bit)) ->
      let enc = Range_coder.encode b in
      let len = Bytes.length enc in
      let damaged =
        if flip then begin
          let d = Bytes.copy enc in
          let i = at mod len in
          Bytes.set d i (Char.chr (Char.code (Bytes.get d i) lxor (1 lsl bit)));
          d
        end
        else Bytes.sub enc 0 (at mod (len + 1))
      in
      let guarded =
        match declared_length damaged with
        | Some n -> n < 0 || Bytes.length damaged < Range_coder.min_coded_length n
        | None -> false
      in
      match decode_outcome Range_coder.decode damaged with
      | Ok v -> (not guarded) && decode_outcome Rc_reference.decode_raw damaged = Ok v
      | Error () -> guarded || decode_outcome Rc_reference.decode_raw damaged = Error ())

let rc_qcheck_min_coded_length =
  qtest ~count:300 "coded size never below min_coded_length" gen_rc_input (fun b ->
      Bytes.length (Range_coder.encode b) >= Range_coder.min_coded_length (Bytes.length b))

let rc_min_coded_length_zero_page () =
  let zero = Bytes.make 4096 '\000' in
  check Alcotest.int "bound for a page" 17 (Range_coder.min_coded_length 4096);
  check Alcotest.int "the bound is tight on the zero page" 17
    (Bytes.length (Range_coder.encode zero))

let rc_rejects_inflated_length () =
  (* 512 MiB declared by a 5-byte body, and a 9-byte varint that wraps
     negative: both must fail before any allocation of that size. *)
  List.iter
    (fun s ->
      match Range_coder.decode (Bytes.of_string s) with
      | _ -> Alcotest.failf "decoded %S" s
      | exception Failure _ -> ())
    [ "\x80\x80\x80\x80\x02"; "\x80\x80\x80\x80\x80\x80\x80\x80\x40" ]

(* ---- Delta ---- *)

let delta_identity () =
  let b = Bytes.of_string "unchanged page" in
  let d = Delta.diff ~old_:b ~fresh:b in
  (* no spans: applied to any same-length base, it changes nothing *)
  let other = Bytes.make (Bytes.length b) 'z' in
  check Alcotest.bytes "identity delta" other (Delta.apply ~old_:other ~delta:d);
  check Alcotest.bytes "apply identity" b (Delta.apply ~old_:b ~delta:d)

let delta_basic () =
  let old_ = Bytes.of_string "hello world, how are you" in
  let fresh = Bytes.of_string "hello belts, how are YOU" in
  let d = Delta.diff ~old_ ~fresh in
  check Alcotest.bytes "apply" fresh (Delta.apply ~old_ ~delta:d)

let delta_smaller_than_page () =
  let old_ = Bytes.make 4096 'a' in
  let fresh = Bytes.copy old_ in
  Bytes.set fresh 100 'b';
  Bytes.set fresh 4000 'c';
  let d = Delta.diff ~old_ ~fresh in
  if Bytes.length d > 64 then Alcotest.failf "delta too large: %d" (Bytes.length d);
  check Alcotest.bytes "apply" fresh (Delta.apply ~old_ ~delta:d)

let delta_length_mismatch () =
  Alcotest.check_raises "mismatch rejected" (Invalid_argument "Delta.diff: length mismatch")
    (fun () -> ignore (Delta.diff ~old_:(Bytes.create 4) ~fresh:(Bytes.create 5)))

let delta_wrong_base () =
  let old_ = Bytes.make 16 'a' and fresh = Bytes.make 16 'b' in
  let d = Delta.diff ~old_ ~fresh in
  Alcotest.check_raises "base length checked" (Failure "Delta.apply: base length mismatch")
    (fun () -> ignore (Delta.apply ~old_:(Bytes.create 8) ~delta:d))

let delta_span_outside_base () =
  (* A hostile delta naming bytes past the end of its base is a decode
     error, not an out-of-bounds blit. *)
  let span ~gap ~len =
    let b = Byte_buf.create () in
    List.iter (Byte_buf.add_varint b) [ 16; 1; gap; len ];
    Byte_buf.add_sub b (Bytes.make len 'x') ~pos:0 ~len;
    Byte_buf.contents b
  in
  List.iter
    (fun (gap, len) ->
      Alcotest.check_raises
        (Printf.sprintf "gap %d len %d" gap len)
        (Failure "Delta.apply: span outside the base")
        (fun () -> ignore (Delta.apply ~old_:(Bytes.make 16 'a') ~delta:(span ~gap ~len))))
    [ (10, 7); (17, 0); (0, 17) ];
  check Alcotest.bytes "a span ending at the last byte applies"
    (Bytes.of_string "aaaaaaaaaaxxxxxx")
    (Delta.apply ~old_:(Bytes.make 16 'a') ~delta:(span ~gap:10 ~len:6))

let delta_qcheck =
  qtest "delta diff/apply reconstructs"
    QCheck2.Gen.(
      bind (int_range 1 2000) (fun n ->
          pair (string_size (return n)) (list_size (int_bound 50) (pair (int_bound (n - 1)) char))))
    (fun (base, edits) ->
      let old_ = Bytes.of_string base in
      let fresh = Bytes.copy old_ in
      List.iter (fun (i, c) -> Bytes.set fresh i c) edits;
      Bytes.equal fresh (Delta.apply ~old_ ~delta:(Delta.diff ~old_ ~fresh)))

let delta_qcheck_shaped =
  qtest ~count:300 "delta diff/apply handles shaped buffer pairs"
    QCheck2.Gen.(pair gen_shaped_bytes (pair (int_bound 2) int))
    (fun (old_, (variant, seed)) ->
      let n = Bytes.length old_ in
      let fresh =
        match variant with
        | 0 -> Bytes.copy old_ (* identity, incl. the empty/empty pair *)
        | 1 -> Bytes.make n 'x' (* all-equal overwrite *)
        | _ -> Rng.bytes (Rng.create ~seed:(Int64.of_int seed)) n (* incompressible *)
      in
      let d = Delta.diff ~old_ ~fresh in
      Bytes.equal fresh (Delta.apply ~old_ ~delta:d)
      && (not (Bytes.equal old_ fresh)
         || (* an identity delta changes no base at all *)
         let other = Bytes.make n 'z' in
         Bytes.equal other (Delta.apply ~old_:other ~delta:d)))

(* ---- Sexpr ---- *)

let sexpr_const_fold () =
  let e = Sexpr.logor (Sexpr.const 0x0FL) (Sexpr.const 0x30L) in
  check Alcotest.bool "folded to const" true (match e with Sexpr.Const 0x3FL -> true | _ -> false)

let sexpr_symbolic_pipeline () =
  (* Listing 1(a): qrk_mmu = read(MMU_CONFIG); write(MMU_CONFIG, qrk | 0x10) *)
  let s = Sexpr.fresh_sym ~origin:"MMU_CONFIG" in
  let written = Sexpr.logor (Sexpr.sym s) (Sexpr.const 0x10L) in
  check Alcotest.bool "unresolved before bind" false (Sexpr.is_concrete written);
  check Alcotest.int "one unbound sym" 1 (List.length (Sexpr.unbound_syms written));
  Sexpr.bind s 0x08L ~speculative:false;
  check (Alcotest.option Alcotest.int64) "resolves after bind" (Some 0x18L) (Sexpr.eval written)

let sexpr_ops () =
  let v e = Option.get (Sexpr.eval e) in
  check Alcotest.int64 "and" 0x0CL (v (Sexpr.logand (Sexpr.const 0xFCL) (Sexpr.const 0x0FL)));
  check Alcotest.int64 "xor" 0xFFL (v (Sexpr.logxor (Sexpr.const 0xF0L) (Sexpr.const 0x0FL)));
  check Alcotest.int64 "add" 5L (v (Sexpr.add (Sexpr.const 2L) (Sexpr.const 3L)));
  check Alcotest.int64 "sub" (-1L) (v (Sexpr.sub (Sexpr.const 2L) (Sexpr.const 3L)));
  check Alcotest.int64 "shl" 8L (v (Sexpr.shift_left (Sexpr.const 1L) 3));
  check Alcotest.int64 "shr" 1L (v (Sexpr.shift_right (Sexpr.const 8L) 3));
  check Alcotest.int64 "not" (-1L) (v (Sexpr.lognot (Sexpr.const 0L)))

let sexpr_force_unbound () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  Alcotest.check_raises "force unbound"
    (Failure "Sexpr.force_exn: expression contains unbound symbols") (fun () ->
      ignore (Sexpr.force_exn (Sexpr.sym s)))

let sexpr_rebind_conflict () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  Sexpr.bind s 1L ~speculative:false;
  (try
     Sexpr.bind s 2L ~speculative:false;
     Alcotest.fail "conflicting bind should raise"
   with Invalid_argument _ -> ());
  Sexpr.bind s 1L ~speculative:false (* same value is fine *)

let sexpr_speculation_taint () =
  let s = Sexpr.fresh_sym ~origin:"JOB_IRQ_STATUS" in
  let e = Sexpr.logand (Sexpr.sym s) (Sexpr.const 0xFFL) in
  Sexpr.bind s 1L ~speculative:true;
  check Alcotest.bool "tainted while speculative" true (Sexpr.speculative e);
  Sexpr.confirm s;
  check Alcotest.bool "clean after confirm" false (Sexpr.speculative e)

let sexpr_rebind_clears_spec () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  Sexpr.bind s 1L ~speculative:true;
  Sexpr.rebind s 5L;
  check Alcotest.bool "not speculative" false (Sexpr.speculative (Sexpr.sym s));
  check (Alcotest.option Alcotest.int64) "new value" (Some 5L) (Sexpr.eval (Sexpr.sym s))

let sexpr_unbound_dedup () =
  let s = Sexpr.fresh_sym ~origin:"X" in
  let e = Sexpr.add (Sexpr.sym s) (Sexpr.sym s) in
  check Alcotest.int "deduplicated" 1 (List.length (Sexpr.unbound_syms e))

let sexpr_qcheck_fold_matches_eval =
  qtest "constant folding agrees with eval"
    QCheck2.Gen.(triple (int_range 0 6) int64 int64)
    (fun (op, a, b) ->
      let build f = f (Sexpr.const a) (Sexpr.const b) in
      let e =
        match op with
        | 0 -> build Sexpr.logor
        | 1 -> build Sexpr.logand
        | 2 -> build Sexpr.logxor
        | 3 -> build Sexpr.add
        | 4 -> build Sexpr.sub
        | 5 -> Sexpr.shift_left (Sexpr.const a) (Int64.to_int b land 31)
        | _ -> Sexpr.shift_right (Sexpr.const a) (Int64.to_int b land 31)
      in
      Sexpr.is_concrete e)

(* ---- Hexdump ---- *)

let hexdump_sizes () =
  check Alcotest.string "bytes" "17 B" (Grt_util.Hexdump.size_to_string 17);
  check Alcotest.string "kb" "1.5 KB" (Grt_util.Hexdump.size_to_string 1536);
  check Alcotest.string "mb" "2.00 MB" (Grt_util.Hexdump.size_to_string (2 * 1024 * 1024));
  check Alcotest.string "gb" "1.00 GB" (Grt_util.Hexdump.size_to_string (1024 * 1024 * 1024))

let contains_substring hay needle = Grt_util.Strutil.contains_sub needle hay

(* ---- Strutil ---- *)

let strutil_basics () =
  let module S = Grt_util.Strutil in
  check Alcotest.bool "prefix yes" true (S.has_prefix "kbase_pm_" "kbase_pm_init_hw");
  check Alcotest.bool "prefix whole" true (S.has_prefix "abc" "abc");
  check Alcotest.bool "prefix no" false (S.has_prefix "kbase_pm_" "kbase_gpuprops");
  check Alcotest.bool "prefix longer than s" false (S.has_prefix "abcd" "abc");
  check Alcotest.bool "suffix yes" true (S.has_suffix "_irq" "kbase_job_irq");
  check Alcotest.bool "suffix no" false (S.has_suffix "_irq" "kbase_job_irqs");
  check Alcotest.bool "sub middle" true (S.contains_sub "irq" "kbase_job_irq_handler");
  check Alcotest.bool "sub absent" false (S.contains_sub "mmu" "kbase_job_irq_handler");
  check Alcotest.bool "sub empty" true (S.contains_sub "" "anything")

let hexdump_renders () =
  let out = Format.asprintf "%a" Grt_util.Hexdump.pp_bytes (Bytes.of_string "hello\x00world!") in
  check Alcotest.bool "contains hex" true (contains_substring out "68 65 6c 6c 6f");
  check Alcotest.bool "contains ascii gutter" true (contains_substring out "|hello.world!|")

let () =
  Alcotest.run "grt_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick rng_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick rng_int_bounds;
          Alcotest.test_case "int rejects <=0" `Quick rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick rng_float_bounds;
          Alcotest.test_case "int64 range" `Quick rng_int64_range;
          Alcotest.test_case "copy" `Quick rng_copy_independent;
          Alcotest.test_case "split" `Quick rng_split_diverges;
          Alcotest.test_case "bytes" `Quick rng_bytes_len;
        ] );
      ( "byte_buf",
        [
          Alcotest.test_case "primitives" `Quick byte_buf_primitives;
          Alcotest.test_case "varint roundtrip" `Quick byte_buf_varint_roundtrip;
          Alcotest.test_case "varint negative" `Quick byte_buf_varint_negative;
          Alcotest.test_case "truncation" `Quick byte_buf_truncation;
          Alcotest.test_case "growth" `Quick byte_buf_growth;
          Alcotest.test_case "clear" `Quick byte_buf_clear;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "stable" `Quick hashing_stable;
          Alcotest.test_case "sub consistent" `Quick hashing_sub_consistent;
          Alcotest.test_case "published FNV-1a vectors" `Quick hashing_published_vectors;
          Alcotest.test_case "sub rejects out-of-bounds slices" `Quick
            hashing_sub_rejects_out_of_bounds;
          hashing_qcheck_matches_reference;
          Alcotest.test_case "hmac keys" `Quick hashing_hmac_keys;
          Alcotest.test_case "crc32 known value" `Quick crc32_known;
          Alcotest.test_case "crc32 detects flip" `Quick crc32_detects_flip;
        ] );
      ( "range_coder",
        [
          Alcotest.test_case "roundtrip cases" `Quick rc_roundtrip_cases;
          Alcotest.test_case "sparse compresses" `Quick rc_compresses_sparse;
          Alcotest.test_case "no explosion" `Quick rc_random_data_no_explosion;
          rc_qcheck_roundtrip;
          rc_qcheck_sparse;
          rc_qcheck_shaped;
          Alcotest.test_case "min_coded_length of a zero page" `Quick rc_min_coded_length_zero_page;
          Alcotest.test_case "rejects inflated length" `Quick rc_rejects_inflated_length;
          rc_qcheck_min_coded_length;
          rc_qcheck_matches_reference;
          Alcotest.test_case "memo matches the reference across generations" `Quick
            rc_memo_matches_reference_across_generations;
          Alcotest.test_case "decode memo matches the reference across generations" `Quick
            rc_decode_memo_matches_reference_across_generations;
          rc_qcheck_damaged_matches_reference;
        ] );
      ( "delta",
        [
          Alcotest.test_case "identity" `Quick delta_identity;
          Alcotest.test_case "basic" `Quick delta_basic;
          Alcotest.test_case "small for sparse edits" `Quick delta_smaller_than_page;
          Alcotest.test_case "length mismatch" `Quick delta_length_mismatch;
          Alcotest.test_case "wrong base" `Quick delta_wrong_base;
          Alcotest.test_case "span outside the base" `Quick delta_span_outside_base;
          delta_qcheck;
          delta_qcheck_shaped;
        ] );
      ( "sexpr",
        [
          Alcotest.test_case "const folding" `Quick sexpr_const_fold;
          Alcotest.test_case "listing 1a pipeline" `Quick sexpr_symbolic_pipeline;
          Alcotest.test_case "operators" `Quick sexpr_ops;
          Alcotest.test_case "force unbound" `Quick sexpr_force_unbound;
          Alcotest.test_case "rebind conflict" `Quick sexpr_rebind_conflict;
          Alcotest.test_case "speculation taint" `Quick sexpr_speculation_taint;
          Alcotest.test_case "rebind clears speculation" `Quick sexpr_rebind_clears_spec;
          Alcotest.test_case "unbound dedup" `Quick sexpr_unbound_dedup;
          sexpr_qcheck_fold_matches_eval;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "sizes" `Quick hexdump_sizes;
          Alcotest.test_case "renders" `Quick hexdump_renders;
        ] );
      ("strutil", [ Alcotest.test_case "basics" `Quick strutil_basics ]);
    ]
