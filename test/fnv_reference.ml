(* Retained reference implementation of 64-bit FNV-1a: one xor and one
   multiply per byte, exactly as [Hashing.fnv1a_bytes] and
   [Hashing.fnv1a_sub] computed it before they learned to step over zero
   words. Recording signatures, chunk hashes and page hashes are all FNV-1a
   digests, so the differential property in test_util demands identical
   digests from both, independently of the goldens. *)

let offset = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let sub ?(seed = offset) b ~pos ~len =
  let h = ref seed in
  for i = pos to pos + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h prime
  done;
  !h

let bytes ?seed b = sub ?seed b ~pos:0 ~len:(Bytes.length b)
