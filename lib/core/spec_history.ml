(* Entries are tagged with the epoch in which they were observed; an epoch
   is one recording session ({!new_epoch} is called at each session start by
   the recording service). A confident hit whose evidence includes an entry
   from an earlier epoch is a *cross-session* hit — speculation bootstrapped
   by history retained from a previous recording (§7.3).

   Each site keeps a ring of its newest outcomes: slot [head] is the
   newest, the [count] before it (modulo the capacity) the older ones. The
   ring grows only when a caller asks for a longer history than it holds;
   a shorter [k] just trims [count], exactly as the list it replaces kept
   the newest [max 1 k]. *)

type ring = {
  mutable values : int64 array array;
  mutable epochs : int array;
  mutable head : int;
  mutable count : int;
}

type t = {
  mutable rings : ring option array; (* indexed by site id *)
  mutable epoch : int;
  mutable cross_hits : int;
}

let create () = { rings = [||]; epoch = 0; cross_hits = 0 }

let find t site = if site < Array.length t.rings then Array.unsafe_get t.rings site else None

(* Slot of the [i]-th newest entry. *)
let slot r i = (r.head - i + Array.length r.values) mod Array.length r.values

(* The ring for [site], holding at least [keep] slots, its entries kept
   newest first. *)
let ring_for t site keep =
  if site >= Array.length t.rings then begin
    let bigger = Array.make (max (site + 1) (2 * Array.length t.rings)) None in
    Array.blit t.rings 0 bigger 0 (Array.length t.rings);
    t.rings <- bigger
  end;
  match t.rings.(site) with
  | Some r when Array.length r.values >= keep -> r
  | prior ->
    let r = { values = Array.make keep [||]; epochs = Array.make keep 0; head = 0; count = 0 } in
    (match prior with
    | None -> ()
    | Some old ->
      (* oldest at slot 0, newest at [count - 1] *)
      for i = 0 to old.count - 1 do
        r.values.(old.count - 1 - i) <- old.values.(slot old i);
        r.epochs.(old.count - 1 - i) <- old.epochs.(slot old i)
      done;
      r.head <- max 0 (old.count - 1);
      r.count <- old.count);
    t.rings.(site) <- Some r;
    r

let observe t ~k site values =
  let keep = max 1 k in
  let r = ring_for t site keep in
  let cap = Array.length r.values in
  let head = if r.count = 0 then 0 else (r.head + 1) mod cap in
  r.values.(head) <- values;
  r.epochs.(head) <- t.epoch;
  r.head <- head;
  r.count <- min (r.count + 1) keep

let forget t site = if site < Array.length t.rings then t.rings.(site) <- None

let rec equal_from (a : int64 array) (b : int64 array) i =
  i = Array.length a || (Int64.equal a.(i) b.(i) && equal_from a b (i + 1))

let rec all_equal r first i =
  i = r.count
  ||
  let v = r.values.(slot r i) in
  Array.length v = Array.length first && equal_from v first 0 && all_equal r first (i + 1)

let rec any_before r epoch i = i < r.count && (r.epochs.(slot r i) < epoch || any_before r epoch (i + 1))

let confident t ~k site =
  match find t site with
  | None -> None
  | Some r when r.count < k || r.count = 0 -> None
  | Some r ->
    let first = r.values.(r.head) in
    if all_equal r first 1 then begin
      if any_before r t.epoch 0 then t.cross_hits <- t.cross_hits + 1;
      Some first
    end
    else None

let new_epoch t = t.epoch <- t.epoch + 1
let cross_hits t = t.cross_hits
