(* Adaptive order-0 arithmetic coder in the Witten–Neal–Cleary style:
   32-bit interval registers with underflow (pending-bit) handling, driven by
   an adaptive byte-frequency model whose total is kept below 2^16 so that
   [range * cum] stays within integer precision.

   This runs on every changed page the recorder ships, so the hot loop is
   engineered to do no per-byte allocation and no linear scans: interval
   registers are native ints (every intermediate fits in 48 bits, so 63-bit
   int arithmetic is exact and truncating division matches the historical
   Int64 formulation bit for bit). The adaptive model keeps a plain
   frequency array: the recorder's pages are zero-dominated, so the
   prefix scan for the common low symbols is shorter than any tree. *)

let code_bits = 32
let whole = 1 lsl code_bits
let half = whole lsr 1
let quarter = whole lsr 2
let three_quarter = half + quarter
let max_total = (1 lsl 16) - 1

module Model = struct
  type t = { freq : int array; mutable total : int }

  let create () = { freq = Array.make 256 1; total = 256 }

  let cumulative t sym =
    let freq = t.freq in
    let c = ref 0 in
    for i = 0 to sym - 1 do
      c := !c + Array.unsafe_get freq i
    done;
    !c

  let find t target =
    let freq = t.freq in
    let c = ref 0 and sym = ref 0 in
    while !c + Array.unsafe_get freq !sym <= target do
      c := !c + Array.unsafe_get freq !sym;
      incr sym
    done;
    (!sym, !c)

  let update t sym =
    Array.unsafe_set t.freq sym (Array.unsafe_get t.freq sym + 24);
    t.total <- t.total + 24;
    if t.total >= max_total then begin
      t.total <- 0;
      for i = 0 to 255 do
        t.freq.(i) <- (t.freq.(i) / 2) + 1;
        t.total <- t.total + t.freq.(i)
      done
    end
end

module Bit_writer = struct
  type t = { buf : Byte_buf.t; mutable acc : int; mutable nbits : int }

  let create buf = { buf; acc = 0; nbits = 0 }

  let put t bit =
    t.acc <- (t.acc lsl 1) lor bit;
    t.nbits <- t.nbits + 1;
    if t.nbits = 8 then begin
      Byte_buf.add_u8 t.buf t.acc;
      t.acc <- 0;
      t.nbits <- 0
    end

  let flush t =
    while t.nbits <> 0 do
      put t 0
    done
end

module Bit_reader = struct
  type t = { r : Byte_buf.Reader.r; mutable acc : int; mutable nbits : int }

  let create r = { r; acc = 0; nbits = 0 }

  let get t =
    if t.nbits = 0 then begin
      t.acc <- (if Byte_buf.Reader.remaining t.r > 0 then Byte_buf.Reader.u8 t.r else 0);
      t.nbits <- 8
    end;
    t.nbits <- t.nbits - 1;
    (t.acc lsr t.nbits) land 1
end

(* [encode] is a pure function of its input, and the recorder feeds it the
   same page contents over and over — identical pages recur within a session
   (job status flips back and forth), across sessions of one workload, and
   across a fleet recording the same network (the same observation behind
   the service's content-addressed recording cache). A small content-keyed
   memo therefore short-circuits most real encodes. Hash collisions cannot
   corrupt output: the stored input is compared byte-for-byte before the
   cached blob is reused, and both sides of the memo are copies so callers
   can keep mutating their buffers. *)
let memo_limit = 1024

let memo : (int, bytes * bytes) Hashtbl.t = Hashtbl.create 256

let content_key data = Hashing.quick data

let encode_raw data =
  let n = Bytes.length data in
  let out = Byte_buf.create ~capacity:(max 16 (n / 4)) () in
  Byte_buf.add_varint out n;
  let bw = Bit_writer.create out in
  let model = Model.create () in
  let low = ref 0 and high = ref (whole - 1) and pending = ref 0 in
  let emit bit =
    Bit_writer.put bw bit;
    let inverse = 1 - bit in
    while !pending > 0 do
      Bit_writer.put bw inverse;
      decr pending
    done
  in
  for i = 0 to n - 1 do
    let sym = Char.code (Bytes.unsafe_get data i) in
    let cum_lo = Model.cumulative model sym in
    let cum_hi = cum_lo + Array.unsafe_get model.Model.freq sym in
    let total = model.Model.total in
    let range = !high - !low + 1 in
    (* [cum_hi = total] and [cum_lo = 0] make the quotient trivial ([range]
       resp. [0]); skipping the division is exact and saves the dominant
       cost of coding the most- and least-significant symbols. *)
    if cum_hi <> total then high := !low + (range * cum_hi / total) - 1;
    if cum_lo <> 0 then low := !low + (range * cum_lo / total);
    let continue = ref true in
    while !continue do
      if !high < half then emit 0
      else if !low >= half then begin
        emit 1;
        low := !low - half;
        high := !high - half
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
    Model.update model sym
  done;
  (* Disambiguate the final interval. *)
  incr pending;
  if !low < quarter then emit 0 else emit 1;
  Bit_writer.flush bw;
  Byte_buf.contents out

let encode_stats = Memo_stats.register "rc.encode"
let decode_stats = Memo_stats.register "rc.decode"

(* Shared miss path for both memo tables: profile the recompute, account
   the resident footprint (input + output bytes), reset at capacity. *)
let memo_insert stats tbl key ~input ~output ~prior =
  Memo_stats.miss stats;
  (match prior with
  | None -> ()
  | Some (old_in, old_out) ->
    Memo_stats.mismatch stats;
    Memo_stats.replaced stats
      ~old_bytes:(Bytes.length old_in + Bytes.length old_out)
      ~bytes:(Bytes.length input + Bytes.length output));
  if Hashtbl.length tbl >= memo_limit then begin
    Memo_stats.evicted stats ~entries:(Hashtbl.length tbl);
    Hashtbl.reset tbl
  end;
  if not (Hashtbl.mem tbl key) then
    Memo_stats.added stats ~bytes:(Bytes.length input + Bytes.length output);
  Hashtbl.replace tbl key (input, output)

let encode data =
  let key = content_key data in
  match Hashtbl.find_opt memo key with
  | Some (input, coded) when Bytes.equal input data ->
    Memo_stats.hit encode_stats;
    Bytes.copy coded
  | prior ->
    let coded = encode_raw data in
    memo_insert encode_stats memo key ~input:(Bytes.copy data) ~output:coded
      ~prior;
    Bytes.copy coded

let decode_raw blob =
  let r = Byte_buf.Reader.of_bytes blob in
  let n = Byte_buf.Reader.varint r in
  let out = Bytes.create n in
  let br = Bit_reader.create r in
  let model = Model.create () in
  let low = ref 0 and high = ref (whole - 1) and value = ref 0 in
  for _ = 1 to code_bits do
    value := (!value lsl 1) lor Bit_reader.get br
  done;
  for i = 0 to n - 1 do
    let total = model.Model.total in
    let range = !high - !low + 1 in
    let target = (((!value - !low + 1) * total) - 1) / range in
    let target = if target > total - 1 then total - 1 else target in
    let sym, cum_lo = Model.find model target in
    let cum_hi = cum_lo + Array.unsafe_get model.Model.freq sym in
    if cum_hi <> total then high := !low + (range * cum_hi / total) - 1;
    if cum_lo <> 0 then low := !low + (range * cum_lo / total);
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
        value := (!value lsl 1) lor Bit_reader.get br
      end
    done;
    Model.update model sym;
    Bytes.unsafe_set out i (Char.unsafe_chr sym)
  done;
  out

(* Decode gets the same memo treatment as encode: the client applies the
   same coded pages every time a workload's sync stream repeats, and decode
   is a pure function of the blob. *)
let decode_memo : (int, bytes * bytes) Hashtbl.t = Hashtbl.create 256

let decode blob =
  let key = content_key blob in
  match Hashtbl.find_opt decode_memo key with
  | Some (input, data) when Bytes.equal input blob ->
    Memo_stats.hit decode_stats;
    Bytes.copy data
  | prior ->
    let data = decode_raw blob in
    memo_insert decode_stats decode_memo key ~input:(Bytes.copy blob)
      ~output:data ~prior;
    Bytes.copy data

let ratio data =
  let n = Bytes.length data in
  if n = 0 then 1.0 else float_of_int (Bytes.length (encode data)) /. float_of_int n

(* Guarded container: a leading tag byte distinguishes range-coded output
   from a stored-raw fallback, so incompressible input never expands by more
   than the tag byte. The bare [encode]/[decode] pair is kept untouched for
   callers that do their own accounting. *)

let guard_tag_raw = 0
let guard_tag_rc = 1

let encode_guarded data =
  let coded = encode data in
  if Bytes.length coded < Bytes.length data then begin
    let out = Bytes.create (Bytes.length coded + 1) in
    Bytes.set out 0 (Char.chr guard_tag_rc);
    Bytes.blit coded 0 out 1 (Bytes.length coded);
    out
  end
  else begin
    let out = Bytes.create (Bytes.length data + 1) in
    Bytes.set out 0 (Char.chr guard_tag_raw);
    Bytes.blit data 0 out 1 (Bytes.length data);
    out
  end

let decode_guarded blob =
  if Bytes.length blob = 0 then failwith "Range_coder.decode_guarded: empty input"
  else begin
    let body = Bytes.sub blob 1 (Bytes.length blob - 1) in
    match Char.code (Bytes.get blob 0) with
    | 0 -> body
    | 1 -> decode body
    | tag -> failwith (Printf.sprintf "Range_coder.decode_guarded: bad tag %d" tag)
  end
