(* Adaptive order-0 arithmetic coder in the Witten–Neal–Cleary style:
   32-bit interval registers with underflow (pending-bit) handling, driven by
   an adaptive byte-frequency model whose total is kept below 2^16 so that
   [range * cum] stays within integer precision.

   This runs on every changed page the recorder ships, so the kernels keep
   all of their state in locals: the frequency array, the interval
   registers and the bit accumulator are native ints updated in place, with
   no record indirection and no call per bit. Every intermediate fits in 48
   bits, so 63-bit int arithmetic is exact and truncating division matches
   the historical Int64 formulation bit for bit. The model is a plain
   frequency array: the recorder's pages are zero-dominated, so the prefix
   scan for the common low symbols is shorter than any tree, and symbol 0
   gets a path of its own in both directions. *)

let code_bits = 32
let whole = 1 lsl code_bits
let half = whole lsr 1
let quarter = whole lsr 2
let three_quarter = half + quarter
let max_total = (1 lsl 16) - 1
let increment = 24

(* Halve every count (keeping each >= 1); returns the new total. *)
let rescale freq =
  let total = ref 0 in
  for i = 0 to 255 do
    let f = (Array.unsafe_get freq i / 2) + 1 in
    Array.unsafe_set freq i f;
    total := !total + f
  done;
  !total

let varint_len n =
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

(* Lower bound on the coded size of any [n]-byte input (proof in the mli).
   [step i] bounds the bits symbol [i] costs; from [saturated] on the
   model total is capped, so the step is constant and [prefix] stops. *)
let saturated = (max_total - 1 - 256 + increment - 1) / increment

let step i =
  let t = float_of_int (min (256 + (increment * i)) (max_total - 1)) in
  -.Float.log2 (((t -. 255.) /. t) +. ldexp 1. (-30))

let prefix =
  let a = Array.make (saturated + 1) 0. in
  for i = 1 to saturated do
    a.(i) <- a.(i - 1) +. step (i - 1)
  done;
  a

let min_coded_length n =
  if n < 0 then invalid_arg "Range_coder.min_coded_length: negative length";
  let bits =
    if n <= saturated then prefix.(n)
    else prefix.(saturated) +. (float_of_int (n - saturated) *. step saturated)
  in
  (* Shave a relative 1e-9 so float rounding can only loosen the bound. *)
  varint_len n + int_of_float (Float.ceil (bits *. (1. -. 1e-9) /. 8.))

(* Encoder output goes to one reusable buffer, sized up front past the
   worst case: a step leaves the range above 2^30 / 65534 > 2^13, so it
   emits at most 18 bits (2.25 bytes) per input byte. Like the memos
   below, this assumes a single domain. *)
let scratch = ref (Bytes.create 4096)

let encode_raw data =
  let n = Bytes.length data in
  let need = 16 + (9 * n / 4) + 2 in
  if Bytes.length !scratch < need then scratch := Bytes.create need;
  let out = !scratch in
  let pos = ref 0 and v = ref n in
  while !v >= 0x80 do
    Bytes.set out !pos (Char.unsafe_chr (0x80 lor (!v land 0x7F)));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.set out !pos (Char.unsafe_chr !v);
  incr pos;
  let freq = Array.make 256 1 and total = ref 256 in
  let low = ref 0 and high = ref (whole - 1) and pending = ref 0 in
  let acc = ref 0 and nbits = ref 0 in
  for i = 0 to n - 1 do
    let sym = Char.code (Bytes.unsafe_get data i) in
    let f = Array.unsafe_get freq sym in
    let t = !total in
    let range = !high - !low + 1 in
    (* [cum_lo = 0] (symbol 0, most of every page) and [cum_hi = total]
       make a quotient trivial ([0] resp. [range]); skipping that division
       is exact. *)
    if sym = 0 then high := !low + (range * f / t) - 1
    else begin
      let cum_lo = ref 0 in
      for s = 0 to sym - 1 do
        cum_lo := !cum_lo + Array.unsafe_get freq s
      done;
      let cum_hi = !cum_lo + f in
      if cum_hi <> t then high := !low + (range * cum_hi / t) - 1;
      low := !low + (range * !cum_lo / t)
    end;
    let continue = ref true in
    while !continue do
      if !high < half || !low >= half then begin
        (* Emit one bit, then the pending underflow bits as its inverse. *)
        let bit = if !high < half then 0 else 1 in
        for k = 0 to !pending do
          acc := (!acc lsl 1) lor (if k = 0 then bit else 1 - bit);
          incr nbits;
          if !nbits = 8 then begin
            Bytes.set out !pos (Char.unsafe_chr !acc);
            incr pos;
            acc := 0;
            nbits := 0
          end
        done;
        pending := 0;
        if bit = 1 then begin
          low := !low - half;
          high := !high - half
        end
      end
      else if !low >= quarter && !high < three_quarter then begin
        incr pending;
        low := !low - quarter;
        high := !high - quarter
      end
      else continue := false;
      if !continue then begin
        low := !low lsl 1;
        high := (!high lsl 1) + 1
      end
    done;
    Array.unsafe_set freq sym (f + increment);
    total := t + increment;
    if !total >= max_total then total := rescale freq
  done;
  (* Disambiguate the final interval: one bit plus its pending inverses,
     then zero padding to the byte boundary. *)
  let bit = if !low < quarter then 0 else 1 in
  for k = 0 to !pending + 1 do
    acc := (!acc lsl 1) lor (if k = 0 then bit else 1 - bit);
    incr nbits;
    if !nbits = 8 then begin
      Bytes.set out !pos (Char.unsafe_chr !acc);
      incr pos;
      acc := 0;
      nbits := 0
    end
  done;
  if !nbits > 0 then begin
    Bytes.set out !pos (Char.unsafe_chr (!acc lsl (8 - !nbits)));
    incr pos
  end;
  Bytes.sub out 0 !pos

let decode_raw blob =
  let len = Bytes.length blob in
  let r = Byte_buf.Reader.of_bytes blob in
  let n = Byte_buf.Reader.varint r in
  (* Every valid encoding is at least [min_coded_length n] long, so a
     shorter body is corrupt: reject it before trusting [n] with an
     allocation. *)
  if n < 0 || len < min_coded_length n then
    failwith "Range_coder.decode: body too short for its declared length";
  let out = Bytes.create n in
  let pos = ref (Byte_buf.Reader.pos r) in
  (* Past the end of the body the code stream reads as zeros. *)
  let value = ref 0 in
  for _ = 1 to code_bits / 8 do
    value := (!value lsl 8) lor (if !pos < len then Char.code (Bytes.unsafe_get blob !pos) else 0);
    incr pos
  done;
  let freq = Array.make 256 1 and total = ref 256 in
  let low = ref 0 and high = ref (whole - 1) in
  let acc = ref 0 and nbits = ref 0 in
  for i = 0 to n - 1 do
    let t = !total in
    let range = !high - !low + 1 in
    let f0 = Array.unsafe_get freq 0 in
    (* Symbol 0 iff [target < f0], where [target = (x - 1) / range] for
       [x = (value - low + 1) * total]; as [floor (y / r) < f <=> y < f * r],
       that is [x <= f0 * range], which needs no division. *)
    let sym =
      if (!value - !low + 1) * t <= f0 * range then begin
        high := !low + (range * f0 / t) - 1;
        0
      end
      else begin
        let target = (((!value - !low + 1) * t) - 1) / range in
        let target = if target > t - 1 then t - 1 else target in
        let cum_lo = ref f0 and s = ref 1 in
        while !cum_lo + Array.unsafe_get freq !s <= target do
          cum_lo := !cum_lo + Array.unsafe_get freq !s;
          incr s
        done;
        let cum_hi = !cum_lo + Array.unsafe_get freq !s in
        if cum_hi <> t then high := !low + (range * cum_hi / t) - 1;
        low := !low + (range * !cum_lo / t);
        !s
      end
    in
    let continue = ref true in
    while !continue do
      if !high < half then ()
      else if !low >= half then begin
        low := !low - half;
        high := !high - half;
        value := !value - half
      end
      else if !low >= quarter && !high < three_quarter then begin
        low := !low - quarter;
        high := !high - quarter;
        value := !value - quarter
      end
      else continue := false;
      if !continue then begin
        low := !low lsl 1;
        high := (!high lsl 1) + 1;
        if !nbits = 0 then begin
          acc := (if !pos < len then Char.code (Bytes.unsafe_get blob !pos) else 0);
          incr pos;
          nbits := 8
        end;
        decr nbits;
        value := (!value lsl 1) lor ((!acc lsr !nbits) land 1)
      end
    done;
    Array.unsafe_set freq sym (Array.unsafe_get freq sym + increment);
    total := t + increment;
    if !total >= max_total then total := rescale freq;
    Bytes.unsafe_set out i (Char.unsafe_chr sym)
  done;
  out

(* Both directions are pure functions, and the recorder and the client feed
   them the same pages over and over: identical pages recur within a session
   (job status flips back and forth), across sessions of one workload, and
   across a fleet recording the same network (the same observation behind
   the service's content-addressed recording cache). Each direction
   therefore has a content-keyed memo, and both are instances of [Memo].

   A memo has two generations. A hit in the old one moves the entry back to
   the young one; a miss goes into the young one, after a rotation (the
   young generation becomes the old one, and the old one is dropped) if the
   young one holds [gen_bytes] or the two would hold more than
   [2 * gen_bytes] with the new entry. Promotions never rotate: cyclic
   access would outrun one generation. So at most [2 * gen_bytes] are
   resident, and any working set of up to about [gen_bytes] stops missing
   after one pass, in any order: its entries only move between the
   generations. After three [fleet-churn] rounds the working sets are
   1,807 encode and 1,403 decode entries, about 150 KB of payload per
   direction; a single table reset wholesale at 1,024 entries missed on
   every pass over them.

   An entry is the same in both directions: the plain bytes up to the last
   non-zero byte (the pages are mostly zeros), the plain length, and the
   coded bytes. It is charged its payload plus [entry_overhead] for the
   record, the byte headers and its table bucket, so the bound caps entry
   count as well as dense pages. An entry larger than one generation is not
   kept. Hash collisions cannot corrupt output: an encode hit needs the
   same length and the same bytes up to the stored prefix, with the
   lookup's own zero tail starting exactly there, which is full equality;
   a decode hit needs the whole coded body to be equal. Only an earlier
   decode can serve a decode hit, and a body that fails to decode raises
   before anything is kept. Both sides of a memo are private copies, so
   callers can keep mutating their buffers. Like the scratch buffer, the
   memos assume a single domain. *)
type entry = { prefix : bytes; len : int; coded : bytes }

let entry_overhead = 96
let entry_bytes e = Bytes.length e.prefix + Bytes.length e.coded + entry_overhead
let gen_bytes = 512 * 1024

module Memo = struct
  type t = {
    stats : Memo_stats.t;
    mutable young : (int, entry) Hashtbl.t;
    mutable old : (int, entry) Hashtbl.t;
    mutable young_bytes : int;
    mutable old_bytes : int;
  }

  let create name =
    {
      stats = Memo_stats.register ~bound_bytes:(2 * gen_bytes) name;
      young = Hashtbl.create 256;
      old = Hashtbl.create 256;
      young_bytes = 0;
      old_bytes = 0;
    }

  (* Put [e] in the young generation, overwriting a colliding entry. *)
  let keep m key e =
    (match Hashtbl.find_opt m.young key with
    | Some prev ->
      let b = entry_bytes prev in
      m.young_bytes <- m.young_bytes - b;
      Memo_stats.dropped m.stats ~entries:1 ~bytes:b
    | None -> ());
    m.young_bytes <- m.young_bytes + entry_bytes e;
    Hashtbl.replace m.young key e

  let rotate m =
    let recycled = m.old in
    Memo_stats.dropped m.stats ~entries:(Hashtbl.length recycled) ~bytes:m.old_bytes;
    Hashtbl.clear recycled;
    m.old <- m.young;
    m.old_bytes <- m.young_bytes;
    m.young <- recycled;
    m.young_bytes <- 0

  (* The entry under [key] that [holds e x i] accepts, or [None] after
     counting the miss. *)
  let find m key holds x i =
    match Hashtbl.find_opt m.young key with
    | Some e as found when holds e x i ->
      Memo_stats.hit m.stats;
      found
    | in_young -> (
      match Hashtbl.find_opt m.old key with
      | Some e as found when holds e x i ->
        Memo_stats.hit m.stats;
        Hashtbl.remove m.old key;
        m.old_bytes <- m.old_bytes - entry_bytes e;
        keep m key e;
        found
      | in_old ->
        Memo_stats.miss m.stats;
        if Option.is_some in_young || Option.is_some in_old then Memo_stats.mismatch m.stats;
        None)

  let add m key e =
    let b = entry_bytes e in
    if b <= gen_bytes then begin
      Memo_stats.added m.stats ~bytes:b;
      if m.young_bytes >= gen_bytes || m.young_bytes + m.old_bytes + b > 2 * gen_bytes then
        rotate m;
      (* A young generation swollen by promotions can still leave no room. *)
      if m.old_bytes + b > 2 * gen_bytes then rotate m;
      keep m key e
    end
end

let encode_memo = Memo.create "rc.encode"
let decode_memo = Memo.create "rc.decode"

(* Length of [data] without its zero tail. *)
let trimmed_length data =
  let i = ref (Bytes.length data) in
  while !i >= 8 && Bytes.get_int64_ne data (!i - 8) = 0L do
    i := !i - 8
  done;
  while !i > 0 && Bytes.unsafe_get data (!i - 1) = '\000' do
    decr i
  done;
  !i

let rec same_prefix p data i t =
  if i + 8 <= t then
    Bytes.get_int64_ne p i = Bytes.get_int64_ne data i && same_prefix p data (i + 8) t
  else i >= t || (Bytes.unsafe_get p i = Bytes.unsafe_get data i && same_prefix p data (i + 1) t)

(* [e] holds the plain [data], whose zero tail starts at [t]. *)
let holds_plain e data t =
  e.len = Bytes.length data && Bytes.length e.prefix = t && same_prefix e.prefix data 0 t

let holds_coded e blob _ = Bytes.equal e.coded blob

let encode data =
  let n = Bytes.length data in
  let t = trimmed_length data in
  let key = Hashing.quick_sub ~seed:n data ~pos:0 ~len:t in
  match Memo.find encode_memo key holds_plain data t with
  | Some e -> Bytes.copy e.coded
  | None ->
    let coded = encode_raw data in
    Memo.add encode_memo key { prefix = Bytes.sub data 0 t; len = n; coded };
    Bytes.copy coded

(* The plain bytes [e] holds, into [out] (its length [e.len]). *)
let expand e out =
  let t = Bytes.length e.prefix in
  Bytes.blit e.prefix 0 out 0 t;
  Bytes.fill out t (e.len - t) '\000'

let decode_miss key blob =
  let out = decode_raw blob in
  let t = trimmed_length out in
  Memo.add decode_memo key { prefix = Bytes.sub out 0 t; len = Bytes.length out; coded = Bytes.copy blob };
  out

let decode blob =
  let key = Hashing.quick blob in
  match Memo.find decode_memo key holds_coded blob 0 with
  | Some e ->
    let out = Bytes.create e.len in
    expand e out;
    out
  | None -> decode_miss key blob

let wrong_length n dst =
  failwith (Printf.sprintf "Range_coder.decode_into: %d bytes into a %d-byte buffer" n (Bytes.length dst))

let decode_into blob dst =
  let key = Hashing.quick blob in
  match Memo.find decode_memo key holds_coded blob 0 with
  | Some e -> if e.len = Bytes.length dst then expand e dst else wrong_length e.len dst
  | None ->
    let out = decode_miss key blob in
    if Bytes.length out = Bytes.length dst then Bytes.blit out 0 dst 0 (Bytes.length out)
    else wrong_length (Bytes.length out) dst
