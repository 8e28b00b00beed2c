type flags = { writable : bool; executable : bool; cacheable : bool }

let rw_data = { writable = true; executable = false; cacheable = true }
let ro_data = { writable = false; executable = false; cacheable = true }
let rx_code = { writable = false; executable = true; cacheable = true }

type fault = Unmapped | Permission of string | Bad_format

let pp_fault ppf = function
  | Unmapped -> Format.pp_print_string ppf "unmapped"
  | Permission s -> Format.fprintf ppf "permission(%s)" s
  | Bad_format -> Format.pp_print_string ppf "bad-format"

type t = { mem : Mem.t; fmt : Sku.pt_format; root : int64 }

let desc_table = 0b11
let desc_block = 0b01
let desc_type_mask = 0b11
let bit_writable = 0x40
let bit_executable = 0x80
let bit_cacheable = 0x100
let bit_access = 0x400
let pa_mask = 0xFF_FFFF_F000

(* Descriptors are read and manipulated as native ints: every field the
   walker touches — the 40-bit PA under [pa_mask], the type bits, the
   permission bits — lives below bit 41, far inside OCaml's 63-bit int.
   (A raw [write_u64] of garbage with bit 63 set would be truncated by the
   conversion; the type/PA bits the walk inspects are unaffected.) Tables
   are page-aligned, so one [Mem.borrow_ro] per level resolves all 512
   descriptors of that table without further lookups or boxing. *)

let level_index va level =
  (* level 1 -> bits 38:30, level 2 -> 29:21, level 3 -> 20:12 *)
  let shift = 12 + (9 * (3 - level)) in
  Int64.to_int (Int64.shift_right_logical va shift) land 0x1FF

(* Read descriptor [idx] of table page [pfn] as a native int; 0 when the
   table page was never materialized. *)
let desc_in mem pfn idx =
  let p = Mem.borrow_ro mem pfn in
  if p == Bytes.empty then 0 else Int64.to_int (Bytes.get_int64_le p (8 * idx))

(* The same, by the table's (page-aligned) physical address. *)
let desc_at mem table_pa idx = desc_in mem (Mem.page_index table_pa) idx

let create mem ~fmt =
  let root = Mem.alloc_pages mem 1 in
  (* Touch the page so it is materialized and tracked as metastate. *)
  Mem.write_u64 mem root 0L;
  { mem; fmt; root }

let root_pa t = t.root
let format t = t.fmt

let of_root mem ~fmt ~root = { mem; fmt; root }

let flag_bits t flags =
  let v = ref 0 in
  if flags.writable then v := !v lor bit_writable;
  if flags.executable then v := !v lor bit_executable;
  if flags.cacheable then v := !v lor bit_cacheable;
  (match t.fmt with Sku.Lpae_v8 -> v := !v lor bit_access | Sku.Lpae_v7 -> ());
  !v

let entry_addr table_pa idx = Int64.add table_pa (Int64.of_int (8 * idx))

(* Descend to [level], allocating intermediate tables as needed. *)
let rec table_for t table_pa va level target =
  if level = target then table_pa
  else begin
    let idx = level_index va level in
    let e = desc_at t.mem table_pa idx in
    let next =
      if e land desc_type_mask = desc_table then Int64.of_int (e land pa_mask)
      else begin
        let fresh = Mem.alloc_pages t.mem 1 in
        Mem.write_u64 t.mem fresh 0L;
        Mem.write_u64 t.mem (entry_addr table_pa idx)
          (Int64.logor fresh (Int64.of_int desc_table));
        fresh
      end
    in
    table_for t next va (level + 1) target
  end

let check_align what v bits =
  if Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L) <> 0L then
    invalid_arg (Printf.sprintf "Mmu: misaligned %s" what)

let map_page t ~va ~pa ~flags =
  check_align "va" va 12;
  check_align "pa" pa 12;
  let l3 = table_for t t.root va 1 3 in
  let ea = entry_addr l3 (level_index va 3) in
  Mem.write_u64 t.mem ea (Int64.logor pa (Int64.of_int (flag_bits t flags lor desc_table)))

let map_block t ~va ~pa ~flags =
  check_align "va" va 21;
  check_align "pa" pa 21;
  let l2 = table_for t t.root va 1 2 in
  let ea = entry_addr l2 (level_index va 2) in
  Mem.write_u64 t.mem ea (Int64.logor pa (Int64.of_int (flag_bits t flags lor desc_block)))

let unmap_page t ~va =
  check_align "va" va 12;
  let l2 = table_for t t.root va 1 2 in
  let e2 = desc_at t.mem l2 (level_index va 2) in
  if e2 land desc_type_mask = desc_block then
    Mem.write_u64 t.mem (entry_addr l2 (level_index va 2)) 0L
  else if e2 land desc_type_mask = desc_table then begin
    let l3 = Int64.of_int (e2 land pa_mask) in
    Mem.write_u64 t.mem (entry_addr l3 (level_index va 3)) 0L
  end

(* Fault codes of [walk]: a result below zero is a fault, not a PA. *)
let f_unmapped = -1
let f_bad_format = -2
let f_access_flag = -3
let f_write = -4
let f_exec = -5

let check_perm t e ~access =
  match t.fmt with
  | Sku.Lpae_v8 when e land bit_access = 0 -> f_access_flag
  | Sku.Lpae_v8 | Sku.Lpae_v7 -> (
    match access with
    | `Read -> 0
    | `Write -> if e land bit_writable = 0 then f_write else 0
    | `Exec -> if e land bit_executable = 0 then f_exec else 0)

(* The walk on native ints: the PA, or a fault code. Only bits 38:0 of the
   VA take part (the level indices and the in-page/in-block offset), so
   [Int64.to_int] of any [int64] VA walks the same way. *)
let translate_int t ~va ~access =
  let e1 = desc_in t.mem (Mem.page_index t.root) ((va lsr 30) land 0x1FF) in
  if e1 land desc_type_mask <> desc_table then f_unmapped
  else begin
    let e2 = desc_in t.mem ((e1 land pa_mask) lsr 12) ((va lsr 21) land 0x1FF) in
    let ty2 = e2 land desc_type_mask in
    if ty2 = desc_block then
      let c = check_perm t e2 ~access in
      if c < 0 then c else e2 land pa_mask lor (va land 0x1F_FFFF)
    else if ty2 = desc_table then begin
      let e3 = desc_in t.mem ((e2 land pa_mask) lsr 12) ((va lsr 12) land 0x1FF) in
      if e3 land desc_type_mask <> desc_table then f_unmapped
      else
        let c = check_perm t e3 ~access in
        if c < 0 then c else e3 land pa_mask lor (va land 0xFFF)
    end
    else if e2 = 0 then f_unmapped
    else f_bad_format
  end

let translate t ~va ~access =
  let r = translate_int t ~va:(Int64.to_int va) ~access in
  if r >= 0 then Ok (Int64.of_int r)
  else
    Error
      (if r = f_unmapped then Unmapped
       else if r = f_bad_format then Bad_format
       else if r = f_access_flag then Permission "access-flag"
       else if r = f_write then Permission "write"
       else Permission "exec")

(* The walkers below resolve each table page once and scan its descriptors
   with direct byte reads. *)

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* [child_table] of a materialized page whose bounds the caller checked. *)
let[@inline] child_unchecked page i =
  let w = get64u page (8 * i) in
  let e = Int64.to_int (if Sys.big_endian then bswap64 w else w) in
  if e land desc_type_mask = desc_table then (e land pa_mask) lsr 12 else -1

let child_table page i =
  if page == Bytes.empty then -1
  else if i < 0 || i > 511 || Bytes.length page < 4096 then invalid_arg "Mmu.child_table"
  else child_unchecked page i

(* The hot loop of the incremental walk: bounds are checked once, and each
   slot is a word read, a decode and a compare. *)
let next_child_change page (slots : int array) i =
  if Array.length slots < 512 then invalid_arg "Mmu.next_child_change";
  let j = ref (max i 0) in
  if page == Bytes.empty then
    while !j < 512 && Array.unsafe_get slots !j = -1 do
      incr j
    done
  else begin
    if Bytes.length page < 4096 then invalid_arg "Mmu.next_child_change";
    while !j < 512 && child_unchecked page !j = Array.unsafe_get slots !j do
      incr j
    done
  end;
  !j

let iter_child_tables mem pfn f =
  let p = Mem.borrow_ro mem pfn in
  if p != Bytes.empty then
    for i = 0 to 511 do
      let c = child_table p i in
      if c >= 0 then f i c
    done

let iter_table_pfns t f =
  let root_pfn = Mem.page_index t.root in
  f root_pfn;
  iter_child_tables t.mem root_pfn (fun _ l2_pfn ->
      f l2_pfn;
      iter_child_tables t.mem l2_pfn (fun _ l3_pfn -> f l3_pfn))

let table_pages t =
  let acc = ref [] in
  iter_table_pfns t (fun pfn -> acc := Int64.of_int pfn :: !acc);
  List.sort_uniq Int64.compare !acc

let flags_of_entry e =
  {
    writable = e land bit_writable <> 0;
    executable = e land bit_executable <> 0;
    cacheable = e land bit_cacheable <> 0;
  }

let mapped_spans t =
  let leaves = ref [] in
  let root_p = Mem.borrow_ro t.mem (Mem.page_index t.root) in
  if root_p != Bytes.empty then
    for i1 = 0 to 511 do
      let e1 = Int64.to_int (Bytes.get_int64_le root_p (8 * i1)) in
      if e1 land desc_type_mask = desc_table then begin
        let l2_p = Mem.borrow_ro t.mem ((e1 land pa_mask) lsr 12) in
        if l2_p != Bytes.empty then
          for i2 = 0 to 511 do
            let e2 = Int64.to_int (Bytes.get_int64_le l2_p (8 * i2)) in
            let va2 =
              Int64.logor
                (Int64.shift_left (Int64.of_int i1) 30)
                (Int64.shift_left (Int64.of_int i2) 21)
            in
            let ty2 = e2 land desc_type_mask in
            if ty2 = desc_block then leaves := (va2, 1 lsl 21, flags_of_entry e2) :: !leaves
            else if ty2 = desc_table then begin
              let l3_p = Mem.borrow_ro t.mem ((e2 land pa_mask) lsr 12) in
              if l3_p != Bytes.empty then
                for i3 = 0 to 511 do
                  let e3 = Int64.to_int (Bytes.get_int64_le l3_p (8 * i3)) in
                  if e3 land desc_type_mask = desc_table then begin
                    let va = Int64.logor va2 (Int64.shift_left (Int64.of_int i3) 12) in
                    leaves := (va, Mem.page_size, flags_of_entry e3) :: !leaves
                  end
                done
            end
          done
      end
    done;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) !leaves in
  (* Coalesce contiguous identical-flag spans. *)
  let rec merge = function
    | (va1, len1, f1) :: (va2, len2, f2) :: rest
      when Int64.add va1 (Int64.of_int len1) = va2 && f1 = f2 ->
      merge ((va1, len1 + len2, f1) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  merge sorted
