(* Differential suite for the flat page store and MMU (ROADMAP item 5's
   safety net): the dense-array Mem and the walker-table Mmu must be
   observationally identical to the retained Hashtbl oracle
   (Mem_reference / an in-test mapping model) under ANY access script.

   Random scripts mix every public entry point — byte/word/bulk accessors,
   page install/borrow, protect/unprotect, allocation —
   over a PFN pool that straddles the dense/spill boundary (so both
   representations and the dense→spill page-crossing paths are exercised).
   On top of the byte-for-byte agreement, the suite checks the generation
   contract the oracle does not model:
   - [write_gen] never decreases; per-page stamps never decrease;
   - a page whose stamp has not advanced since an observer last looked
     holds identical bytes (the memsync skip guarantee). *)

module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu
module Sku = Grt_gpu.Sku
module Ref = Mem_reference

let check = Alcotest.check

(* ---- random access scripts ---- *)

(* Dense low, dense around the growth boundary (initial cap 1024), the last
   dense PFN, and spill. 0xFFFF straddles into 0x10000 on page-crossing
   accesses, covering the dense→spill seam. *)
let pool =
  [| 0x100; 0x101; 0x102; 0x3FF; 0x400; 0x401; 0x1000; 0xFFFF; 0x10000; 0x10001; 0x100000 |]

type op =
  | Wu8 of int * int * int (* pool idx, offset, value *)
  | Wu32 of int * int * int64
  | Wu64 of int * int * int64
  | Ru8 of int * int
  | Ru32 of int * int
  | Ru64 of int * int
  | Wbytes of int * int * int (* pool idx, offset, length (content from seed) *)
  | Rbytes of int * int * int
  | Wf32s of int * int * int (* pool idx, offset (any alignment), count *)
  | Rf32s of int * int * int
  | Set_page of int * int (* pool idx, fill seed *)
  | Get_page of int
  | Borrow_poke of int * int * int (* page_rw + in-place byte write *)
  | Alloc of int
  | Protect of int list (* pool idxs *)
  | Protect_page of int (* the unboxed single-page entry point *)
  | Is_protected of int
  | Cycle of int * int (* rounds of protect-one-page-then-unprotect-all, pool idx *)
  | Unprotect
  | Clear_dirty
  | Audit

let gen_op : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_bound (Array.length pool - 1) in
  (* Bias offsets toward the tail so multi-byte accesses straddle pages. *)
  let off = frequency [ (3, int_bound 4095); (1, int_range 4088 4095) ] in
  let v64 =
    let* lo = int_bound 0xFFFFFF and* hi = int_bound 0xFFFFFF in
    return (Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 28))
  in
  frequency
    [
      (4, map3 (fun i o v -> Wu8 (i, o, v)) idx off (int_bound 0xFF));
      (4, map3 (fun i o v -> Wu32 (i, o, v)) idx off v64);
      (3, map3 (fun i o v -> Wu64 (i, o, v)) idx off v64);
      (3, map2 (fun i o -> Ru8 (i, o)) idx off);
      (3, map2 (fun i o -> Ru32 (i, o)) idx off);
      (3, map2 (fun i o -> Ru64 (i, o)) idx off);
      (2, map3 (fun i o n -> Wbytes (i, o, n)) idx off (int_range 1 9000));
      (2, map3 (fun i o n -> Rbytes (i, o, n)) idx off (int_range 1 9000));
      (2, map3 (fun i o n -> Wf32s (i, o, n)) idx off (int_range 1 40));
      (2, map3 (fun i o n -> Rf32s (i, o, n)) idx off (int_range 1 40));
      (2, map2 (fun i s -> Set_page (i, s)) idx (int_bound 0xFF));
      (2, map (fun i -> Get_page i) idx);
      (2, map3 (fun i o v -> Borrow_poke (i, o, v)) idx (int_bound 4095) (int_bound 0xFF));
      (1, map (fun n -> Alloc (1 + n)) (int_bound 7));
      (2, map (fun is -> Protect is) (list_size (int_range 1 4) idx));
      (2, map (fun i -> Protect_page i) idx);
      (2, map (fun i -> Is_protected i) idx);
      (* up to 300 rounds: crosses the point where the protection epoch
         wraps *)
      (1, map2 (fun n i -> Cycle (n, i)) (int_range 1 300) idx);
      (1, return Unprotect);
      (1, return Clear_dirty);
      (2, return Audit);
    ]

let gen_script = QCheck2.Gen.(list_size (int_range 5 60) gen_op)

let print_op = function
  | Wu8 (i, o, v) -> Printf.sprintf "Wu8(%#x,%#x,%#x)" pool.(i) o v
  | Wu32 (i, o, v) -> Printf.sprintf "Wu32(%#x,%#x,%Lx)" pool.(i) o v
  | Wu64 (i, o, v) -> Printf.sprintf "Wu64(%#x,%#x,%Lx)" pool.(i) o v
  | Ru8 (i, o) -> Printf.sprintf "Ru8(%#x,%#x)" pool.(i) o
  | Ru32 (i, o) -> Printf.sprintf "Ru32(%#x,%#x)" pool.(i) o
  | Ru64 (i, o) -> Printf.sprintf "Ru64(%#x,%#x)" pool.(i) o
  | Wbytes (i, o, n) -> Printf.sprintf "Wbytes(%#x,%#x,%d)" pool.(i) o n
  | Rbytes (i, o, n) -> Printf.sprintf "Rbytes(%#x,%#x,%d)" pool.(i) o n
  | Wf32s (i, o, n) -> Printf.sprintf "Wf32s(%#x,%#x,%d)" pool.(i) o n
  | Rf32s (i, o, n) -> Printf.sprintf "Rf32s(%#x,%#x,%d)" pool.(i) o n
  | Set_page (i, s) -> Printf.sprintf "Set_page(%#x,%d)" pool.(i) s
  | Get_page i -> Printf.sprintf "Get_page(%#x)" pool.(i)
  | Borrow_poke (i, o, v) -> Printf.sprintf "Borrow_poke(%#x,%#x,%#x)" pool.(i) o v
  | Alloc n -> Printf.sprintf "Alloc(%d)" n
  | Protect is -> Printf.sprintf "Protect(%s)" (String.concat "," (List.map (fun i -> Printf.sprintf "%#x" pool.(i)) is))
  | Protect_page i -> Printf.sprintf "Protect_page(%#x)" pool.(i)
  | Is_protected i -> Printf.sprintf "Is_protected(%#x)" pool.(i)
  | Cycle (n, i) -> Printf.sprintf "Cycle(%d,%#x)" n pool.(i)
  | Unprotect -> "Unprotect"
  | Clear_dirty -> "Clear_dirty"
  | Audit -> "Audit"

let print_script ops = String.concat "; " (List.map print_op ops)

exception Mismatch of string

let fail_op op what = raise (Mismatch (Printf.sprintf "%s: %s" (print_op op) what))

let addr_of i off = Int64.add (Int64.shift_left (Int64.of_int pool.(i)) 12) (Int64.of_int off)

let fill_bytes seed n = Bytes.init n (fun i -> Char.chr ((seed + i) land 0xFF))
let fill_floats seed n = Array.init n (fun i -> float_of_int ((seed + i) mod 1000) *. 0.5)

(* Run [f] on both sides and demand agreement on the result AND on whether
   a protected-page trap fired (partial writes before the trap are then
   compared by the next audit). *)
let both op fm fr eq show =
  let run f wrap =
    match f () with
    | v -> Ok v
    | exception Mem.Protected_page_write p when wrap -> Error p
    | exception Ref.Protected p when not wrap -> Error p
  in
  match (run fm true, run fr false) with
  | Ok a, Ok b -> if not (eq a b) then fail_op op (Printf.sprintf "value: flat %s vs ref %s" (show a) (show b))
  | Error a, Error b ->
    if a <> b then fail_op op (Printf.sprintf "trap pfn: flat %Lx vs ref %Lx" a b)
  | Ok _, Error p -> fail_op op (Printf.sprintf "ref trapped on %Lx, flat did not" p)
  | Error p, Ok _ -> fail_op op (Printf.sprintf "flat trapped on %Lx, ref did not" p)

let eq_unit () () = true
let show_unit () = "()"
let show_i64 = Printf.sprintf "%Ld"
let show_list l = String.concat "," (List.map show_i64 l)

let audit op mem rf observed =
  let cmp what a b =
    if a <> b then
      fail_op op (Printf.sprintf "%s: flat [%s] vs ref [%s]" what (show_list a) (show_list b))
  in
  cmp "materialized" (Mem.materialized_pages mem) (Ref.materialized_pages rf);
  cmp "dirty" (Mem.dirty_pages mem) (Ref.dirty_pages rf);
  cmp "protected" (Mem.protected_pfns mem) (Ref.protected_pfns rf);
  Array.iter
    (fun pfn ->
      if Mem.is_protected mem pfn <> Ref.is_protected rf (Int64.of_int pfn) then
        fail_op op (Printf.sprintf "is_protected %#x disagrees" pfn))
    pool;
  if Mem.dirty_bytes mem <> Ref.dirty_bytes rf then
    fail_op op (Printf.sprintf "dirty_bytes: %d vs %d" (Mem.dirty_bytes mem) (Ref.dirty_bytes rf));
  Array.iter
    (fun pfn ->
      let pfn64 = Int64.of_int pfn in
      let page = Mem.get_page mem pfn64 in
      if not (Bytes.equal page (Ref.get_page rf pfn64)) then
        fail_op op (Printf.sprintf "page %#x contents diverge" pfn);
      (* Generation contract: stamps never decrease, and an unchanged stamp
         guarantees unchanged bytes — across every mutation path. *)
      let g = Mem.page_gen mem pfn64 in
      (match Hashtbl.find_opt observed pfn with
      | Some (g0, b0) ->
        if g < g0 then fail_op op (Printf.sprintf "page %#x gen moved backwards" pfn);
        if g = g0 && not (Bytes.equal page b0) then
          fail_op op (Printf.sprintf "page %#x changed under an unchanged stamp %Ld" pfn g)
      | None -> ());
      Hashtbl.replace observed pfn (g, page))
    pool

let run_script ops =
  let mem = Mem.create () in
  let rf = Ref.create () in
  let observed : (int, int64 * bytes) Hashtbl.t = Hashtbl.create 16 in
  let last_wg = ref (-1L) in
  List.iter
    (fun op ->
      (match op with
      | Wu8 (i, o, v) ->
        both op (fun () -> Mem.write_u8 mem (addr_of i o) v) (fun () -> Ref.write_u8 rf (addr_of i o) v) eq_unit show_unit
      | Wu32 (i, o, v) ->
        both op (fun () -> Mem.write_u32 mem (addr_of i o) v) (fun () -> Ref.write_u32 rf (addr_of i o) v) eq_unit show_unit
      | Wu64 (i, o, v) ->
        both op (fun () -> Mem.write_u64 mem (addr_of i o) v) (fun () -> Ref.write_u64 rf (addr_of i o) v) eq_unit show_unit
      | Ru8 (i, o) ->
        both op (fun () -> Mem.read_u8 mem (addr_of i o)) (fun () -> Ref.read_u8 rf (addr_of i o)) ( = ) string_of_int
      | Ru32 (i, o) ->
        both op (fun () -> Mem.read_u32 mem (addr_of i o)) (fun () -> Ref.read_u32 rf (addr_of i o)) Int64.equal show_i64
      | Ru64 (i, o) ->
        both op (fun () -> Mem.read_u64 mem (addr_of i o)) (fun () -> Ref.read_u64 rf (addr_of i o)) Int64.equal show_i64
      | Wbytes (i, o, n) ->
        let b = fill_bytes (o + n) n in
        both op (fun () -> Mem.write_bytes mem (addr_of i o) b) (fun () -> Ref.write_bytes rf (addr_of i o) b) eq_unit show_unit
      | Rbytes (i, o, n) ->
        both op (fun () -> Mem.read_bytes mem (addr_of i o) n) (fun () -> Ref.read_bytes rf (addr_of i o) n) Bytes.equal Bytes.to_string
      | Wf32s (i, o, n) ->
        let vs = fill_floats (o + n) n in
        both op
          (fun () -> Mem.write_f32_array mem (addr_of i o) vs)
          (fun () -> Ref.write_f32_array rf (addr_of i o) vs)
          eq_unit show_unit
      | Rf32s (i, o, n) ->
        (* Compare bit patterns: random page bytes decode to NaNs, where
           float equality would lie. Both sides take the identical
           [Int32.float_of_bits] path, so bits must agree exactly. *)
        let bits a = Array.map Int32.bits_of_float a in
        both op
          (fun () -> bits (Mem.read_f32_array mem (addr_of i o) n))
          (fun () -> bits (Ref.read_f32_array rf (addr_of i o) n))
          ( = )
          (fun a -> String.concat "," (Array.to_list (Array.map (Printf.sprintf "%lx") a)))
      | Set_page (i, s) ->
        let b = fill_bytes s 4096 in
        let pfn = Int64.of_int pool.(i) in
        both op (fun () -> Mem.set_page mem pfn b) (fun () -> Ref.set_page rf pfn b) eq_unit show_unit
      | Get_page i ->
        let pfn = Int64.of_int pool.(i) in
        both op (fun () -> Mem.get_page mem pfn) (fun () -> Ref.get_page rf pfn) Bytes.equal Bytes.to_string
      | Borrow_poke (i, o, v) ->
        let pfn = Int64.of_int pool.(i) in
        both op
          (fun () -> Bytes.set (Mem.page_rw mem pfn) o (Char.chr v))
          (fun () -> Bytes.set (Ref.page_rw rf pfn) o (Char.chr v))
          eq_unit show_unit
      | Alloc n ->
        both op (fun () -> Mem.alloc_pages mem n) (fun () -> Ref.alloc_pages rf n) Int64.equal show_i64
      | Protect is ->
        let pfns = List.map (fun i -> Int64.of_int pool.(i)) is in
        both op (fun () -> Mem.protect_pages mem pfns) (fun () -> Ref.protect_pages rf pfns) eq_unit show_unit
      | Protect_page i ->
        both op
          (fun () -> Mem.protect_page mem pool.(i))
          (fun () -> Ref.protect_pages rf [ Int64.of_int pool.(i) ])
          eq_unit show_unit
      | Is_protected i ->
        both op
          (fun () -> Mem.is_protected mem pool.(i))
          (fun () -> Ref.is_protected rf (Int64.of_int pool.(i)))
          ( = ) string_of_bool
      | Cycle (n, i) ->
        let cycle protect unprotect () =
          for k = 1 to n do
            protect pool.((i + k) mod Array.length pool);
            unprotect ()
          done
        in
        both op
          (cycle (Mem.protect_page mem) (fun () -> Mem.unprotect_all mem))
          (cycle (fun pfn -> Ref.protect_pages rf [ Int64.of_int pfn ]) (fun () -> Ref.unprotect_all rf))
          eq_unit show_unit
      | Unprotect ->
        both op (fun () -> Mem.unprotect_all mem) (fun () -> Ref.unprotect_all rf) eq_unit show_unit
      | Clear_dirty ->
        both op (fun () -> Mem.clear_dirty mem) (fun () -> Ref.clear_dirty rf) eq_unit show_unit
      | Audit -> audit op mem rf observed);
      let wg = Mem.write_gen mem in
      if wg < !last_wg then fail_op op "write_gen moved backwards";
      last_wg := wg)
    ops;
  audit Audit mem rf observed

let mem_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:350 ~name:"flat Mem == Hashtbl oracle (350 scripts)"
       ~print:print_script gen_script (fun ops ->
         match run_script ops with
         | () -> true
         | exception Mismatch msg ->
           QCheck2.Test.fail_report msg))

(* ---- MMU differential: the table walker against a region-granular model ---- *)

(* Reference granularity is one L2 slot (a 2 MiB region): either a block
   mapping or a 512-entry leaf table — which is exactly the state space the
   walker's L2 descriptor can encode, including the documented overwrite
   semantics (a block replacing a table drops the whole table; mapping a
   page into a block region shatters the block). *)
type region = Block of int64 * Mmu.flags | Table of (int64 * Mmu.flags) option array

type mop =
  | Map_page of int * int * int * int (* region idx, slot, pa seed, flags idx *)
  | Map_block of int * int * int
  | Unmap of int * int
  | Translate of int * int * int (* region idx, slot, access idx *)

let regions = [| (0, 0); (0, 1); (0, 2); (1, 0); (1, 511); (511, 511) |]
let slots = [| 0; 1; 2; 7; 255; 511 |]

let flag_choices =
  [|
    Mmu.rw_data;
    Mmu.ro_data;
    Mmu.rx_code;
    { Mmu.writable = true; executable = true; cacheable = false };
  |]

let accesses = [| `Read; `Write; `Exec |]

let gen_mop : mop QCheck2.Gen.t =
  let open QCheck2.Gen in
  let reg = int_bound (Array.length regions - 1) in
  let slot = int_bound (Array.length slots - 1) in
  frequency
    [
      (5, map3 (fun r s (p, f) -> Map_page (r, s, p, f)) reg slot (pair (int_bound 0xFFFF) (int_bound 3)));
      (2, map3 (fun r p f -> Map_block (r, p, f)) reg (int_bound 0xFF) (int_bound 3));
      (3, map2 (fun r s -> Unmap (r, s)) reg slot);
      (5, map3 (fun r s a -> Translate (r, s, a)) reg slot (int_bound 2));
    ]

let gen_mmu_script =
  QCheck2.Gen.(pair (oneofa [| Sku.Lpae_v7; Sku.Lpae_v8 |]) (list_size (int_range 4 40) gen_mop))

let print_mop = function
  | Map_page (r, s, p, f) -> Printf.sprintf "Map_page(r%d,s%d,%#x,f%d)" r s p f
  | Map_block (r, p, f) -> Printf.sprintf "Map_block(r%d,%#x,f%d)" r p f
  | Unmap (r, s) -> Printf.sprintf "Unmap(r%d,s%d)" r s
  | Translate (r, s, a) -> Printf.sprintf "Translate(r%d,s%d,a%d)" r s a

let print_mmu_script (fmt, ops) =
  Printf.sprintf "%s: %s"
    (match fmt with Sku.Lpae_v7 -> "v7" | Sku.Lpae_v8 -> "v8")
    (String.concat "; " (List.map print_mop ops))

let va_of r s =
  let i1, i2 = regions.(r) in
  Int64.logor
    (Int64.shift_left (Int64.of_int i1) 30)
    (Int64.logor (Int64.shift_left (Int64.of_int i2) 21) (Int64.shift_left (Int64.of_int slots.(s)) 12))

let page_pa seed = Int64.shift_left (Int64.of_int (seed land 0xFFFF)) 12
let block_pa seed = Int64.shift_left (Int64.of_int (seed land 0xFF)) 21

let ref_perm (fl : Mmu.flags) access =
  match access with
  | `Read -> Ok ()
  | `Write -> if fl.Mmu.writable then Ok () else Error (Mmu.Permission "write")
  | `Exec -> if fl.Mmu.executable then Ok () else Error (Mmu.Permission "exec")

let ref_translate model r s access =
  let va = va_of r s in
  match Hashtbl.find_opt model regions.(r) with
  | None -> Error Mmu.Unmapped
  | Some (Block (pa, fl)) -> (
    match ref_perm fl access with
    | Error _ as e -> e
    | Ok () -> Ok (Int64.logor pa (Int64.logand va 0x1F_FFFFL)))
  | Some (Table arr) -> (
    match arr.(slots.(s)) with
    | None -> Error Mmu.Unmapped
    | Some (pa, fl) -> (
      match ref_perm fl access with
      | Error _ as e -> e
      | Ok () -> Ok (Int64.logor pa (Int64.logand va 0xFFFL))))

(* Reference mapped_spans: leaves sorted by VA, contiguous identical-flag
   runs coalesced — the walker's documented output shape. *)
let ref_spans model =
  let leaves = ref [] in
  Hashtbl.iter
    (fun (i1, i2) state ->
      let va2 =
        Int64.logor (Int64.shift_left (Int64.of_int i1) 30) (Int64.shift_left (Int64.of_int i2) 21)
      in
      match state with
      | Block (_, fl) -> leaves := (va2, 1 lsl 21, fl) :: !leaves
      | Table arr ->
        Array.iteri
          (fun idx e ->
            match e with
            | None -> ()
            | Some (_, fl) ->
              leaves := (Int64.logor va2 (Int64.shift_left (Int64.of_int idx) 12), 4096, fl) :: !leaves)
          arr)
    model;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) !leaves in
  let rec merge = function
    | (va1, len1, f1) :: (va2, len2, f2) :: rest
      when Int64.add va1 (Int64.of_int len1) = va2 && f1 = f2 ->
      merge ((va1, len1 + len2, f1) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  merge sorted

let show_result = function
  | Ok pa -> Printf.sprintf "Ok %Lx" pa
  | Error f -> Format.asprintf "Error %a" Mmu.pp_fault f

let run_mmu_script (fmt, ops) =
  let mem = Mem.create () in
  let mmu = Mmu.create mem ~fmt in
  let model : (int * int, region) Hashtbl.t = Hashtbl.create 8 in
  let table_of r =
    match Hashtbl.find_opt model regions.(r) with
    | Some (Table arr) -> arr
    | _ ->
      let arr = Array.make 512 None in
      Hashtbl.replace model regions.(r) (Table arr);
      arr
  in
  List.iter
    (fun op ->
      match op with
      | Map_page (r, s, seed, f) ->
        let fl = flag_choices.(f) in
        Mmu.map_page mmu ~va:(va_of r s) ~pa:(page_pa seed) ~flags:fl;
        (table_of r).(slots.(s)) <- Some (page_pa seed, fl)
      | Map_block (r, seed, f) ->
        let fl = flag_choices.(f) in
        let i1, i2 = regions.(r) in
        let va = Int64.logor (Int64.shift_left (Int64.of_int i1) 30) (Int64.shift_left (Int64.of_int i2) 21) in
        Mmu.map_block mmu ~va ~pa:(block_pa seed) ~flags:fl;
        Hashtbl.replace model regions.(r) (Block (block_pa seed, fl))
      | Unmap (r, s) -> (
        Mmu.unmap_page mmu ~va:(va_of r s);
        match Hashtbl.find_opt model regions.(r) with
        | Some (Block _) -> Hashtbl.remove model regions.(r)
        | Some (Table arr) -> arr.(slots.(s)) <- None
        | None -> ())
      | Translate (r, s, a) ->
        let access = accesses.(a) in
        let got = Mmu.translate mmu ~va:(va_of r s) ~access in
        let want = ref_translate model r s access in
        if got <> want then
          raise
            (Mismatch
               (Printf.sprintf "%s: flat %s vs ref %s" (print_mop op) (show_result got)
                  (show_result want))))
    ops;
  (* Closing audit: every region/slot translates identically under every
     access kind; the table-page walk is duplicate-free, covers exactly
     [table_pages], and only names materialized pages; mapped_spans match
     the model's coalesced leaves. *)
  Array.iteri
    (fun r _ ->
      Array.iteri
        (fun s _ ->
          List.iter
            (fun a ->
              let ai = match a with `Read -> 0 | `Write -> 1 | `Exec -> 2 in
              let got = Mmu.translate mmu ~va:(va_of r s) ~access:a in
              let want = ref_translate model r s a in
              if got <> want then
                raise
                  (Mismatch
                     (Printf.sprintf "final %s: flat %s vs ref %s"
                        (print_mop (Translate (r, s, ai)))
                        (show_result got) (show_result want))))
            [ `Read; `Write; `Exec ])
        slots)
    regions;
  let walked = ref [] in
  Mmu.iter_table_pfns mmu (fun pfn -> walked := Int64.of_int pfn :: !walked);
  let walked = List.rev !walked in
  let uniq = List.sort_uniq Int64.compare walked in
  if List.length uniq <> List.length walked then raise (Mismatch "iter_table_pfns revisited a table");
  if uniq <> Mmu.table_pages mmu then raise (Mismatch "iter_table_pfns disagrees with table_pages");
  List.iter
    (fun pfn ->
      if Mem.page_ro mem pfn = None then
        raise (Mismatch (Printf.sprintf "table page %Lx not materialized" pfn)))
    uniq;
  if Mmu.mapped_spans mmu <> ref_spans model then raise (Mismatch "mapped_spans diverge")

let mmu_differential =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"flat Mmu == mapping model (300 scripts)"
       ~print:print_mmu_script gen_mmu_script (fun script ->
         match run_mmu_script script with
         | () -> true
         | exception Mismatch msg -> QCheck2.Test.fail_report msg))

(* ---- targeted unit tests ---- *)

(* protected_pfns materializes sorted regardless of protect order, across
   the dense/spill boundary, reflects further protects and is cleared by
   unprotect_all. *)
let protected_ordering () =
  let mem = Mem.create () in
  Mem.protect_pages mem [ 0x10001L; 0x3FFL; 0x100L ];
  check (Alcotest.list Alcotest.int64) "sorted across dense/spill" [ 0x100L; 0x3FFL; 0x10001L ]
    (Mem.protected_pfns mem);
  (* A second call reads the same sorted list. *)
  check (Alcotest.list Alcotest.int64) "repeated read stable" [ 0x100L; 0x3FFL; 0x10001L ]
    (Mem.protected_pfns mem);
  Mem.protect_pages mem [ 0x200L; 0x10000L ];
  check (Alcotest.list Alcotest.int64) "later protects re-sorted"
    [ 0x100L; 0x200L; 0x3FFL; 0x10000L; 0x10001L ]
    (Mem.protected_pfns mem);
  (* Duplicate protects do not duplicate entries. *)
  Mem.protect_pages mem [ 0x200L; 0x200L ];
  check (Alcotest.list Alcotest.int64) "idempotent"
    [ 0x100L; 0x200L; 0x3FFL; 0x10000L; 0x10001L ]
    (Mem.protected_pfns mem);
  Mem.unprotect_all mem;
  check (Alcotest.list Alcotest.int64) "unprotect_all empties" [] (Mem.protected_pfns mem);
  (* The store is writable again everywhere that was protected. *)
  Mem.write_u8 mem (Int64.shift_left 0x200L 12) 7;
  check Alcotest.int "write lands after unprotect" 7 (Mem.read_u8 mem (Int64.shift_left 0x200L 12))

(* Continuous validation protects the metastate before every job and
   unprotects it after: neither step allocates, and a write in between
   still traps. Epochs wrap every 255 rounds, so 600 rounds cross it
   twice. *)
let protection_allocates_nothing () =
  let mem = Mem.create () in
  let first = Mem.page_index (Mem.alloc_pages mem 200) in
  for i = 0 to 199 do
    Mem.write_u8 mem (Int64.shift_left (Int64.of_int (first + i)) Mem.page_shift) 1
  done;
  let round () =
    for i = 0 to 199 do
      Mem.protect_page mem (first + i)
    done;
    Mem.unprotect_all mem
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 600 do
    round ()
  done;
  check (Alcotest.float 0.) "minor words for 600 protect/unprotect rounds of 200 pages" 0.
    (Gc.minor_words () -. w0);
  for i = 0 to 199 do
    Mem.protect_page mem (first + i)
  done;
  let addr = Int64.shift_left (Int64.of_int (first + 7)) Mem.page_shift in
  (match Mem.write_u8 mem addr 2 with
  | () -> Alcotest.fail "a write to a protected page went through"
  | exception Mem.Protected_page_write p -> check Alcotest.int64 "trap pfn" (Int64.of_int (first + 7)) p);
  Mem.unprotect_all mem;
  Mem.write_u8 mem addr 2;
  check Alcotest.int "write lands after unprotect" 2 (Mem.read_u8 mem addr)

let gen_monotone () =
  let mem = Mem.create () in
  let addr = Int64.shift_left 0x100L 12 in
  let prev = ref (Mem.write_gen mem) in
  for i = 0 to 99 do
    Mem.write_u8 mem (Int64.add addr (Int64.of_int (i mod 4096))) i;
    let g = Mem.write_gen mem in
    check Alcotest.bool "write_gen strictly advances on writes" true (g > !prev);
    prev := g
  done;
  ignore (Mem.read_u64 mem addr);
  ignore (Mem.dirty_pages mem);
  check Alcotest.bool "reads do not stamp" true (Mem.write_gen mem = !prev)

let () =
  Alcotest.run "mem_flat"
    [
      ("differential", [ mem_differential; mmu_differential ]);
      ( "units",
        [
          Alcotest.test_case "protected_pfns ordering" `Quick protected_ordering;
          Alcotest.test_case "write_gen monotone" `Quick gen_monotone;
          Alcotest.test_case "protection allocates nothing" `Quick protection_allocates_nothing;
        ] );
    ]
