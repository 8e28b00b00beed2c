(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an already sorted array, [p] in [0, 1]. *)
let percentile a p =
  match Array.length a with
  | 0 -> 0.
  | n -> a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's [statistics.quantiles data ~n:4] (method "exclusive"), so that
   spreads computed here match the ones a Python harness computes. Needs at
   least two samples; with one, all three quartiles are that sample. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)
