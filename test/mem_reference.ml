(* Retained reference model of the physical page store — the shape Mem had
   before it went flat: everything keyed by [int64] PFN in hash tables, one
   byte at a time. The differential suite (test_mem_flat) runs random access
   scripts against this oracle and the production store and demands
   identical observable behaviour.

   Every multi-byte accessor here decomposes into byte-ascending [u8]
   operations. That is deliberate: the flat store's partial-write semantics
   around protected pages (a straddling write lands on the first page, then
   traps on the second) fall out of byte-ascending order with a per-page
   protection check at the first touched byte, so the oracle reproduces
   them without modeling the fast paths. *)

exception Protected of int64

let page_size = 4096

type t = {
  pages : (int64, bytes) Hashtbl.t; (* materialized pages only *)
  dirty : (int64, unit) Hashtbl.t;
  prot : (int64, unit) Hashtbl.t;
  mutable next_pfn : int64;
}

let create () =
  {
    pages = Hashtbl.create 64;
    dirty = Hashtbl.create 64;
    prot = Hashtbl.create 8;
    next_pfn = 0x100L;
  }

let pfn_of addr = Int64.shift_right_logical addr 12
let off_of addr = Int64.to_int (Int64.logand addr 0xFFFL)

let alloc_pages t n =
  if n <= 0 then invalid_arg "Mem_reference.alloc_pages";
  let base = t.next_pfn in
  t.next_pfn <- Int64.add t.next_pfn (Int64.of_int n);
  Int64.shift_left base 12

(* Materialize-on-write with protection trap, dirty marking and nothing
   else: generation stamps are a property of the production store that the
   suite checks relationally, not differentially. *)
let page_rw t pfn =
  if Hashtbl.mem t.prot pfn then raise (Protected pfn);
  let p =
    match Hashtbl.find_opt t.pages pfn with
    | Some p -> p
    | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace t.pages pfn p;
      p
  in
  Hashtbl.replace t.dirty pfn ();
  p

let read_u8 t addr =
  match Hashtbl.find_opt t.pages (pfn_of addr) with
  | None -> 0
  | Some p -> Char.code (Bytes.get p (off_of addr))

let write_u8 t addr v =
  Bytes.set (page_rw t (pfn_of addr)) (off_of addr) (Char.chr (v land 0xFF))

let read_u32 t addr =
  let b k = Int64.of_int (read_u8 t (Int64.add addr (Int64.of_int k))) in
  Int64.logor (b 0)
    (Int64.logor
       (Int64.shift_left (b 1) 8)
       (Int64.logor (Int64.shift_left (b 2) 16) (Int64.shift_left (b 3) 24)))

let write_u32 t addr v =
  let v = Int64.to_int (Int64.logand v 0xFFFFFFFFL) in
  for k = 0 to 3 do
    write_u8 t (Int64.add addr (Int64.of_int k)) ((v lsr (8 * k)) land 0xFF)
  done

let read_u64 t addr =
  Int64.logor (read_u32 t addr) (Int64.shift_left (read_u32 t (Int64.add addr 4L)) 32)

let write_u64 t addr v =
  write_u32 t addr (Int64.logand v 0xFFFFFFFFL);
  write_u32 t (Int64.add addr 4L) (Int64.shift_right_logical v 32)

let read_f32 t addr = Int32.float_of_bits (Int64.to_int32 (read_u32 t addr))

let write_f32 t addr f =
  write_u32 t addr (Int64.logand (Int64.of_int32 (Int32.bits_of_float f)) 0xFFFFFFFFL)

let write_f32_array t addr values =
  Array.iteri (fun i f -> write_f32 t (Int64.add addr (Int64.of_int (4 * i))) f) values

let read_f32_array t addr n =
  Array.init n (fun i -> read_f32 t (Int64.add addr (Int64.of_int (4 * i))))

let read_bytes t addr n =
  Bytes.init n (fun i -> Char.chr (read_u8 t (Int64.add addr (Int64.of_int i))))

let write_bytes t addr b =
  Bytes.iteri (fun i c -> write_u8 t (Int64.add addr (Int64.of_int i)) (Char.code c)) b

let get_page t pfn =
  match Hashtbl.find_opt t.pages pfn with
  | None -> Bytes.make page_size '\000'
  | Some p -> Bytes.copy p

let set_page t pfn b =
  if Bytes.length b <> page_size then invalid_arg "Mem_reference.set_page";
  if Hashtbl.mem t.prot pfn then raise (Protected pfn);
  (match Hashtbl.find_opt t.pages pfn with
  | Some p -> Bytes.blit b 0 p 0 page_size
  | None -> Hashtbl.replace t.pages pfn (Bytes.copy b));
  Hashtbl.replace t.dirty pfn ()

let protect_pages t pfns = List.iter (fun p -> Hashtbl.replace t.prot p ()) pfns
let unprotect_all t = Hashtbl.reset t.prot
let is_protected t pfn = Hashtbl.mem t.prot pfn

let sorted_keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort Int64.compare

let materialized_pages t = sorted_keys t.pages
let dirty_pages t = sorted_keys t.dirty
let protected_pfns t = sorted_keys t.prot
let clear_dirty t = Hashtbl.reset t.dirty
let dirty_bytes t = Hashtbl.length t.dirty * page_size
