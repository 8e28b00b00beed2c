let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

(* Eight FNV-1a steps over zero bytes are eight multiplies by the prime
   (xor with 0 is the identity): one multiply by [fnv_prime^8] mod 2^64. *)
let fnv_prime8 =
  let p2 = Int64.mul fnv_prime fnv_prime in
  let p4 = Int64.mul p2 p2 in
  Int64.mul p4 p4

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* One FNV-1a step on the byte at bit [shift] of [w]. *)
let step h w shift =
  Int64.mul (Int64.logxor h (Int64.logand (Int64.shift_right_logical w shift) 0xFFL)) fnv_prime

(* FNV-1a over [b.[pos .. pos + len - 1]] from [h], read a little-endian
   word at a time: the recorder's pages and blobs are mostly zero words, and
   a zero word costs one multiply. A non-zero word takes its eight byte
   steps in index order, each byte taken from the word, so the digest is the
   byte loop's. The caller checks bounds. Inlined: an [int64] a call
   returns is boxed. *)
let[@inline] fnv1a_range h b ~pos ~len =
  let h = ref h and i = ref pos in
  let stop = pos + len in
  while !i <= stop - 8 do
    let w = if Sys.big_endian then bswap64 (get64u b !i) else get64u b !i in
    if w = 0L then h := Int64.mul !h fnv_prime8
    else begin
      let x = step (step (step (step !h w 0) w 8) w 16) w 24 in
      h := step (step (step (step x w 32) w 40) w 48) w 56
    end;
    i := !i + 8
  done;
  while !i < stop do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get b !i)))) fnv_prime;
    incr i
  done;
  !h

(* [pos + len] can wrap past [max_int]; [Bytes.length b - pos] cannot
   once [pos] is in range. *)
let check_slice what b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b || len > Bytes.length b - pos then
    invalid_arg (what ^ ": slice out of bounds")

let fnv1a_sub b ~pos ~len =
  check_slice "Hashing.fnv1a_sub" b ~pos ~len;
  fnv1a_range fnv_offset b ~pos ~len

let fnv1a_sub_matches b ~pos ~len ~hash_at =
  check_slice "Hashing.fnv1a_sub_matches" b ~pos ~len;
  check_slice "Hashing.fnv1a_sub_matches" b ~pos:hash_at ~len:8;
  Int64.equal (fnv1a_range fnv_offset b ~pos ~len) (Bytes.get_int64_le b hash_at)

let fnv1a_bytes ?(seed = fnv_offset) b = fnv1a_range seed b ~pos:0 ~len:(Bytes.length b)

let fnv1a_string s = fnv1a_bytes (Bytes.unsafe_of_string s)

let[@inline] combine a b =
  let h = Int64.logxor a (Int64.add b 0x9E3779B97F4A7C15L) in
  Int64.mul (Int64.logxor h (Int64.shift_right_logical h 29)) fnv_prime

let hmac ?len ~key b =
  let len = match len with Some len -> len | None -> Bytes.length b in
  check_slice "Hashing.hmac" b ~pos:0 ~len;
  let inner = fnv1a_range (fnv1a_string ("grt-ipad:" ^ key)) b ~pos:0 ~len in
  let outer_seed = fnv1a_string ("grt-opad:" ^ key) in
  combine outer_seed inner

(* [stack] holds the roots of the complete subtrees so far, largest first.
   Leaf [i] closes one subtree per trailing 1 bit of [i], as a binary
   counter carries; the root folds the stack from the right, where the
   level-by-level fold promotes an odd node. In this module, no digest is
   boxed. *)
type merkle = { stack : Bytes.t; mutable depth : int; mutable leaves : int }

let merkle_create n =
  let rec bits n = if n = 0 then 0 else 1 + bits (n lsr 1) in
  { stack = Bytes.create (8 * max 1 (bits n)); depth = 0; leaves = 0 }

let merkle_push_at m b at =
  let h = ref (Bytes.get_int64_le b at) and i = ref m.leaves in
  while !i land 1 = 1 do
    m.depth <- m.depth - 1;
    h := combine (Bytes.get_int64_le m.stack (8 * m.depth)) !h;
    i := !i lsr 1
  done;
  Bytes.set_int64_le m.stack (8 * m.depth) !h;
  m.depth <- m.depth + 1;
  m.leaves <- m.leaves + 1

let merkle_root m =
  if m.depth = 0 then fnv1a_bytes Bytes.empty
  else begin
    let h = ref (Bytes.get_int64_le m.stack (8 * (m.depth - 1))) in
    for d = m.depth - 2 downto 0 do
      h := combine (Bytes.get_int64_le m.stack (8 * d)) !h
    done;
    !h
  end

(* Process-internal memo key: FNV-style fold over 8-byte words, so the
   dependency chain advances a word at a time instead of a byte at a time.
   Never serialized — collisions only cost the caller's full comparison. *)
let quick_range seed b ~pos ~len =
  let h = ref (seed + len) in
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    h := (!h lxor Int64.to_int (Bytes.get_int64_le b !i)) * 0x100000001B3;
    i := !i + 8
  done;
  while !i < stop do
    h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * 0x100000001B3;
    incr i
  done;
  !h

let quick ?(seed = 0x1B873593) b = quick_range seed b ~pos:0 ~len:(Bytes.length b)

let quick_sub ?(seed = 0x1B873593) b ~pos ~len =
  check_slice "Hashing.quick_sub" b ~pos ~len;
  quick_range seed b ~pos ~len

let crc_table =
  lazy
    (let t = Array.make 256 0l in
     for n = 0 to 255 do
       let c = ref (Int32.of_int n) in
       for _ = 0 to 7 do
         if Int32.logand !c 1l <> 0l then
           c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
         else c := Int32.shift_right_logical !c 1
       done;
       t.(n) <- !c
     done;
     t)

let crc32 b =
  let t = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  for i = 0 to Bytes.length b - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    c := Int32.logxor t.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl
