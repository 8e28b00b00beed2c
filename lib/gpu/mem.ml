let page_shift = 12
let page_size = 1 lsl page_shift

exception Protected_page_write of int64

(* Flat page store: PFNs below [dense_limit] index directly into dense
   arrays (grown geometrically as the bump allocator climbs); anything
   above spills into small int-keyed hash tables. Every hot-path quantity
   — generation counter, dirty flags, materialization — lives in unboxed
   [int]/[Bytes] form; the public API stays [int64] and converts at the
   edge. PFNs always fit in a native int: a page number is an address
   shifted right by 12, so even a full 64-bit address yields < 2^52.

   Invariants (enforced by the differential suite in test_mem_flat):
   - [pages.(pfn) == Bytes.empty] iff the page is unmaterialized; a
     materialized buffer is exactly [page_size] bytes and is the live
     backing store (borrows stay valid across [set_page]).
   - [mat]/[mat_len] lists each materialized dense pfn exactly once, in
     materialization order; [spill] keys cover the rest.
   - [dirtyb.(pfn) <> '\000'] iff pfn is in [dl.(0..dl_len)], exactly once,
     so [dirty_bytes] is a counter read and [clear_dirty] is O(dirty).
   - [gens.(pfn)] only ever increases, and advances exactly when the
     original Hashtbl implementation stamped the page.
   - a dense pfn is protected iff [protb.(pfn)] holds the current
     [prot_epoch] (1..255; 0 is never current), so [unprotect_all] moves
     the epoch on instead of clearing each page. *)

let dense_limit = 1 lsl 16

type t = {
  mutable cap : int; (* length of the dense arrays, a power of two *)
  mutable pages : bytes array; (* Bytes.empty = unmaterialized *)
  mutable gens : int array; (* 0 = never written *)
  mutable dirtyb : Bytes.t; (* per-pfn dirty flag *)
  mutable protb : Bytes.t; (* per-pfn protection epoch *)
  mutable mat : int array; (* materialized dense pfns, append order *)
  mutable mat_len : int;
  mutable dl : int array; (* dirty dense pfns, append order *)
  mutable dl_len : int;
  mutable gen : int;
  mutable next_pfn : int;
  spill : (int, bytes) Hashtbl.t;
  spill_gens : (int, int) Hashtbl.t;
  spill_dirty : (int, unit) Hashtbl.t;
  spill_prot : (int, unit) Hashtbl.t;
  mutable prot_epoch : int;
}

let create () =
  let cap = 1024 in
  {
    cap;
    pages = Array.make cap Bytes.empty;
    gens = Array.make cap 0;
    dirtyb = Bytes.make cap '\000';
    protb = Bytes.make cap '\000';
    mat = Array.make 256 0;
    mat_len = 0;
    dl = Array.make 256 0;
    dl_len = 0;
    gen = 0;
    next_pfn = 0x100;
    spill = Hashtbl.create 8;
    spill_gens = Hashtbl.create 8;
    spill_dirty = Hashtbl.create 8;
    spill_prot = Hashtbl.create 8;
    prot_epoch = 1;
  }

let grow t pfn =
  let ncap = ref t.cap in
  while pfn >= !ncap do
    ncap := !ncap * 2
  done;
  let ncap = min !ncap dense_limit in
  let pages = Array.make ncap Bytes.empty in
  Array.blit t.pages 0 pages 0 t.cap;
  let gens = Array.make ncap 0 in
  Array.blit t.gens 0 gens 0 t.cap;
  let dirtyb = Bytes.make ncap '\000' in
  Bytes.blit t.dirtyb 0 dirtyb 0 t.cap;
  let protb = Bytes.make ncap '\000' in
  Bytes.blit t.protb 0 protb 0 t.cap;
  t.pages <- pages;
  t.gens <- gens;
  t.dirtyb <- dirtyb;
  t.protb <- protb;
  t.cap <- ncap

let push_int arr len v =
  (* amortized-growth int vector; returns the (possibly fresh) backing *)
  let arr = if len = Array.length arr then begin
      let bigger = Array.make (2 * Array.length arr) 0 in
      Array.blit arr 0 bigger 0 len;
      bigger
    end
    else arr
  in
  Array.unsafe_set arr len v;
  arr

let mat_push t pfn =
  t.mat <- push_int t.mat t.mat_len pfn;
  t.mat_len <- t.mat_len + 1

let dirty_push t pfn =
  t.dl <- push_int t.dl t.dl_len pfn;
  t.dl_len <- t.dl_len + 1

(* Every write path stamps the page with a fresh generation; readers can
   compare stamps to skip pages untouched since their last visit. Unlike
   the dirty set, generations are never reset, so independent observers
   (e.g. the two memsync directions) cannot clobber each other's view. *)
let touch_gen t pfn =
  let g = t.gen + 1 in
  t.gen <- g;
  if pfn >= 0 && pfn < dense_limit then begin
    if pfn >= t.cap then grow t pfn;
    Array.unsafe_set t.gens pfn g
  end
  else Hashtbl.replace t.spill_gens pfn g

let write_gen t = Int64.of_int t.gen

let page_gen_at t pfn =
  if pfn >= 0 && pfn < t.cap then Array.unsafe_get t.gens pfn
  else if pfn >= 0 && pfn < dense_limit then 0
  else match Hashtbl.find_opt t.spill_gens pfn with Some g -> g | None -> 0

let page_gen t pfn = Int64.of_int (page_gen_at t (Int64.to_int pfn))

let rec next_moved t pfns ~len ~seen i =
  if i >= len then len
  else
    let pfn = Array.unsafe_get pfns i in
    if pfn < 0 || pfn >= Array.length seen || page_gen_at t pfn > Array.unsafe_get seen pfn then i
    else next_moved t pfns ~len ~seen (i + 1)

let protect_page t pfn =
  if pfn >= 0 && pfn < dense_limit then begin
    if pfn >= t.cap then grow t pfn;
    Bytes.unsafe_set t.protb pfn (Char.unsafe_chr t.prot_epoch)
  end
  else Hashtbl.replace t.spill_prot pfn ()

let protect_pages t pfns = List.iter (fun pfn -> protect_page t (Int64.to_int pfn)) pfns

(* Every byte still holding the old epoch goes stale at once. A byte holds
   255 epochs, so one call in 255 clears them all and starts over at 1. *)
let unprotect_all t =
  if t.prot_epoch < 255 then t.prot_epoch <- t.prot_epoch + 1
  else begin
    Bytes.fill t.protb 0 t.cap '\000';
    t.prot_epoch <- 1
  end;
  if Hashtbl.length t.spill_prot > 0 then Hashtbl.reset t.spill_prot

let is_protected t pfn =
  if pfn >= 0 && pfn < t.cap then Char.code (Bytes.unsafe_get t.protb pfn) = t.prot_epoch
  else if pfn >= 0 && pfn < dense_limit then false
  else Hashtbl.mem t.spill_prot pfn

let protected_pfns t =
  let l = ref (Hashtbl.fold (fun k () acc -> Int64.of_int k :: acc) t.spill_prot []) in
  for pfn = t.cap - 1 downto 0 do
    if is_protected t pfn then l := Int64.of_int pfn :: !l
  done;
  List.sort Int64.compare !l

let page_of_addr addr = Int64.shift_right_logical addr page_shift

let page_index addr = Int64.to_int (Int64.shift_right_logical addr page_shift)

let alloc_pages t n =
  if n <= 0 then invalid_arg "Mem.alloc_pages";
  let base = t.next_pfn in
  t.next_pfn <- t.next_pfn + n;
  Int64.shift_left (Int64.of_int base) page_shift

(* Borrowed page buffers — the hot path. [borrow_ro] never materializes and
   returns the [Bytes.empty] sentinel for absent pages (a physical-equality
   check, not a length test, is the contract). [borrow_rw] materializes,
   checks protection, and performs the dirty/generation stamping exactly
   where the historical Hashtbl implementation did. *)

let borrow_ro t pfn =
  if pfn >= 0 && pfn < t.cap then Array.unsafe_get t.pages pfn
  else if pfn >= 0 && pfn < dense_limit then Bytes.empty
  else match Hashtbl.find_opt t.spill pfn with Some p -> p | None -> Bytes.empty

let spill_rw t pfn =
  if Hashtbl.mem t.spill_prot pfn then raise (Protected_page_write (Int64.of_int pfn));
  let p =
    match Hashtbl.find_opt t.spill pfn with
    | Some p -> p
    | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace t.spill pfn p;
      p
  in
  Hashtbl.replace t.spill_dirty pfn ();
  let g = t.gen + 1 in
  t.gen <- g;
  Hashtbl.replace t.spill_gens pfn g;
  p

let borrow_rw t pfn =
  if pfn >= 0 && pfn < dense_limit then begin
    if pfn >= t.cap then grow t pfn;
    if Char.code (Bytes.unsafe_get t.protb pfn) = t.prot_epoch then
      raise (Protected_page_write (Int64.of_int pfn));
    let p0 = Array.unsafe_get t.pages pfn in
    let p =
      if p0 != Bytes.empty then p0
      else begin
        let p = Bytes.make page_size '\000' in
        Array.unsafe_set t.pages pfn p;
        mat_push t pfn;
        p
      end
    in
    if Bytes.unsafe_get t.dirtyb pfn = '\000' then begin
      Bytes.unsafe_set t.dirtyb pfn '\001';
      dirty_push t pfn
    end;
    let g = t.gen + 1 in
    t.gen <- g;
    Array.unsafe_set t.gens pfn g;
    p
  end
  else spill_rw t pfn

let page_ro t pfn =
  let p = borrow_ro t (Int64.to_int pfn) in
  if p == Bytes.empty then None else Some p

let page_rw t pfn = borrow_rw t (Int64.to_int pfn)

let read_u8 t addr =
  let p = borrow_ro t (page_index addr) in
  if p == Bytes.empty then 0
  else Char.code (Bytes.unsafe_get p (Int64.to_int (Int64.logand addr 0xFFFL)))

let write_u8 t addr v =
  let p = borrow_rw t (page_index addr) in
  Bytes.unsafe_set p (Int64.to_int (Int64.logand addr 0xFFFL)) (Char.unsafe_chr (v land 0xFF))

(* Multi-byte accessors take a direct in-page fast path and fall back to
   byte-by-byte when straddling a page boundary. *)

let read_u32 t addr =
  let off = Int64.to_int (Int64.logand addr 0xFFFL) in
  if off <= page_size - 4 then begin
    let p = borrow_ro t (page_index addr) in
    if p == Bytes.empty then 0L
    else Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xFFFFFFFFL
  end
  else begin
    let b0 = read_u8 t addr in
    let b1 = read_u8 t (Int64.add addr 1L) in
    let b2 = read_u8 t (Int64.add addr 2L) in
    let b3 = read_u8 t (Int64.add addr 3L) in
    Int64.logor
      (Int64.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
      (Int64.shift_left (Int64.of_int b3) 24)
  end

let write_u32 t addr v =
  let off = Int64.to_int (Int64.logand addr 0xFFFL) in
  if off <= page_size - 4 then begin
    let p = borrow_rw t (page_index addr) in
    Bytes.set_int32_le p off (Int64.to_int32 v)
  end
  else begin
    let v = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
    write_u8 t addr v;
    write_u8 t (Int64.add addr 1L) (v lsr 8);
    write_u8 t (Int64.add addr 2L) (v lsr 16);
    write_u8 t (Int64.add addr 3L) (v lsr 24)
  end

let read_u64 t addr =
  let lo = read_u32 t addr in
  let hi = read_u32 t (Int64.add addr 4L) in
  Int64.logor lo (Int64.shift_left hi 32)

let write_u64 t addr v =
  write_u32 t addr (Int64.logand v 0xFFFFFFFFL);
  write_u32 t (Int64.add addr 4L) (Int64.shift_right_logical v 32)

let read_f32 t addr = Int32.float_of_bits (Int64.to_int32 (read_u32 t addr))

let write_f32 t addr f = write_u32 t addr (Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL)

(* Bulk float-array transfer for the data slots. The per-element accessors
   pay a page resolution (and, on writes, dirty/generation stamping) per
   4-byte access; slots span whole runs of pages, so resolve each page once
   and move the span with direct [Bytes] accesses. Page-straddling elements
   cannot occur: spans are split on page boundaries and f32s are 4-aligned
   within a span only if [addr] is — an unaligned start falls back to the
   per-element path. *)

let write_f32_array t addr values =
  let n = Array.length values in
  if not (Int64.equal (Int64.logand addr 3L) 0L) then
    for i = 0 to n - 1 do
      write_f32 t (Int64.add addr (Int64.of_int (4 * i))) values.(i)
    done
  else begin
    let i = ref 0 in
    while !i < n do
      let a = Int64.add addr (Int64.of_int (4 * !i)) in
      let off = Int64.to_int (Int64.logand a 0xFFFL) in
      let here = min (n - !i) ((page_size - off) / 4) in
      let p = borrow_rw t (page_index a) in
      for k = 0 to here - 1 do
        Bytes.set_int32_le p (off + (4 * k)) (Int32.bits_of_float values.(!i + k))
      done;
      i := !i + here
    done
  end

let read_f32_array t addr n =
  if not (Int64.equal (Int64.logand addr 3L) 0L) then
    Array.init n (fun i -> read_f32 t (Int64.add addr (Int64.of_int (4 * i))))
  else begin
    let out = Array.make n 0.0 in
    let i = ref 0 in
    while !i < n do
      let a = Int64.add addr (Int64.of_int (4 * !i)) in
      let off = Int64.to_int (Int64.logand a 0xFFFL) in
      let here = min (n - !i) ((page_size - off) / 4) in
      let p = borrow_ro t (page_index a) in
      if p != Bytes.empty then
        for k = 0 to here - 1 do
          out.(!i + k) <- Int32.float_of_bits (Bytes.get_int32_le p (off + (4 * k)))
        done;
      i := !i + here
    done;
    out
  end

(* Byte-span transfer, split on page boundaries like the f32 bulk paths. *)

let read_bytes t addr n =
  let out = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let a = Int64.add addr (Int64.of_int !i) in
    let off = Int64.to_int (Int64.logand a 0xFFFL) in
    let here = min (n - !i) (page_size - off) in
    let p = borrow_ro t (page_index a) in
    if p == Bytes.empty then Bytes.fill out !i here '\000'
    else Bytes.blit p off out !i here;
    i := !i + here
  done;
  out

let write_bytes t addr b =
  let n = Bytes.length b in
  let i = ref 0 in
  while !i < n do
    let a = Int64.add addr (Int64.of_int !i) in
    let off = Int64.to_int (Int64.logand a 0xFFFL) in
    let here = min (n - !i) (page_size - off) in
    let p = borrow_rw t (page_index a) in
    Bytes.blit b !i p off here;
    i := !i + here
  done

let get_page t pfn =
  let p = borrow_ro t (Int64.to_int pfn) in
  if p == Bytes.empty then Bytes.make page_size '\000' else Bytes.copy p

(* What [set_page] does to a page besides its bytes and generation: the
   protection check and the dirty mark. *)
let mark_dirty t pfn =
  if is_protected t pfn then raise (Protected_page_write (Int64.of_int pfn));
  if pfn >= 0 && pfn < dense_limit then begin
    if pfn >= t.cap then grow t pfn;
    if Bytes.unsafe_get t.dirtyb pfn = '\000' then begin
      Bytes.unsafe_set t.dirtyb pfn '\001';
      dirty_push t pfn
    end
  end
  else Hashtbl.replace t.spill_dirty pfn ()

let set_page t pfn64 b =
  if Bytes.length b <> page_size then invalid_arg "Mem.set_page: wrong size";
  let pfn = Int64.to_int pfn64 in
  mark_dirty t pfn;
  (* Blit over an already-materialized page rather than rebinding a fresh
     copy: page buffers never escape (readers get copies), and replayed
     memory images rewrite the same pfns every session. *)
  if pfn >= 0 && pfn < dense_limit then begin
    let p0 = Array.unsafe_get t.pages pfn in
    if p0 != Bytes.empty then Bytes.blit b 0 p0 0 page_size
    else begin
      Array.unsafe_set t.pages pfn (Bytes.copy b);
      mat_push t pfn
    end
  end
  else
    (match Hashtbl.find_opt t.spill pfn with
    | Some p -> Bytes.blit b 0 p 0 page_size
    | None -> Hashtbl.replace t.spill pfn (Bytes.copy b));
  touch_gen t pfn

let sorted_pfns dense len spill =
  let l = Hashtbl.fold (fun k _ acc -> Int64.of_int k :: acc) spill [] in
  let l = ref l in
  for i = len - 1 downto 0 do
    l := Int64.of_int (Array.unsafe_get dense i) :: !l
  done;
  List.sort Int64.compare !l

let materialized_pages t = sorted_pfns t.mat t.mat_len t.spill

let dirty_pages t = sorted_pfns t.dl t.dl_len t.spill_dirty

let clear_dirty t =
  for i = 0 to t.dl_len - 1 do
    Bytes.unsafe_set t.dirtyb (Array.unsafe_get t.dl i) '\000'
  done;
  t.dl_len <- 0;
  Hashtbl.reset t.spill_dirty

let dirty_bytes t = (t.dl_len + Hashtbl.length t.spill_dirty) * page_size
