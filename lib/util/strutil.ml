(* All three compare in place, with no closure: they run on every
   speculated driver commit, where a [String.sub] per probe position would
   allocate. *)
let rec matches_from sub s i j =
  j = String.length sub
  || (String.unsafe_get s (i + j) = String.unsafe_get sub j && matches_from sub s i (j + 1))

let has_prefix p s = String.length s >= String.length p && matches_from p s 0 0

let has_suffix suf s =
  let n = String.length s and m = String.length suf in
  n >= m && matches_from suf s (n - m) 0

let rec contains_from sub s i =
  i + String.length sub <= String.length s && (matches_from sub s i 0 || contains_from sub s (i + 1))

let contains_sub sub s = contains_from sub s 0
