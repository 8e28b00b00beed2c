(* Retained reference implementation of the range coder: [encode_raw] and
   [decode_raw] exactly as they were before the kernels moved their model
   and bit I/O into locals, with the [Model], [Bit_writer] and [Bit_reader]
   records and a [Byte_buf] call per bit. The differential suite in
   test_util runs random, constant, sparse and page-sized inputs through
   both and demands identical bytes out, so the wire format stays pinned
   independently of the goldens. *)

module Byte_buf = Grt_util.Byte_buf

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
