(* Memsync fast-path tests: dirty-page tracking (generation stamps),
   content-addressed dedup, per-page adaptive encoding and the tagged wire
   format — exercised standalone over a sender/receiver memory pair and
   end-to-end on a recorded MNIST session. *)

module Mem = Grt_gpu.Mem
module Mode = Grt.Mode
module Memsync = Grt.Memsync
module Recording = Grt.Recording
module Session = Grt_runtime.Session
module Rng = Grt_util.Rng
module E = Grt.Experiments

let check = Alcotest.check

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let region_pages = 16

(* Both endpoints watch the same region: the receiver syncs its own
   writes back in the bidirectional property. *)
let mk_pair ?shared cfg ~pages =
  let mem_s = Mem.create () and mem_r = Mem.create () in
  let pa = Mem.alloc_pages mem_s pages in
  let sender = Memsync.create ?shared cfg and receiver = Memsync.create cfg in
  List.iter
    (fun ms ->
      Memsync.register_region ms
        {
          Memsync.name = "cmd";
          meta = true;
          va = 0x4000_0000L;
          pa;
          model_bytes = pages * Mem.page_size;
          actual_bytes = pages * Mem.page_size;
        })
    [ sender; receiver ];
  (mem_s, mem_r, sender, receiver, Mem.page_of_addr pa)

(* ---- the property: any mutation script, any flag combination ----

   Each round mutates the sender's region and syncs it across the "wire"
   (the same record list a recording would carry) into the receiver; then
   the receiver rewrites some pages and syncs them back through the same
   receive path. Along the way every hash reference must resolve to
   content its receiver already holds (from an earlier full-bodied record,
   in or before this payload), and each payload's wire accounting must
   equal the sum of its records. At the end both memories are equal, and
   an immediate re-sync with no writes ships nothing in either direction —
   which fails if any shared page body was mutated after it was shipped. *)

let all_flag_combos =
  List.concat_map
    (fun tagged ->
      List.concat_map
        (fun delta -> List.map (fun compress -> (tagged, delta, compress)) [ true; false ])
        [ true; false ])
    [ true; false ]

let cfg_of_combo (tagged, delta, compress) =
  {
    (Mode.default_config Mode.Ours_mds) with
    Mode.memsync_tagged = tagged;
    delta_dumps = delta;
    compress_dumps = compress;
  }

type body_spec = Sparse of (int * int) list | Dense of int | Dup of int

let gen_script =
  let open QCheck2.Gen in
  let body =
    frequency
      [
        (3, map (fun e -> Sparse e) (list_size (int_bound 12) (pair (int_bound 4095) (int_bound 255))));
        (2, map (fun s -> Dense s) small_nat);
        (2, map (fun i -> Dup i) small_nat);
      ]
  in
  let writes = list_size (int_bound 6) (pair (int_bound (region_pages - 1)) body) in
  list_size (int_range 1 4) (pair writes writes)

let run_script combo script =
  let cfg = cfg_of_combo combo in
  let mem_s, mem_r, sender, receiver, first = mk_pair cfg ~pages:region_pages in
  let pool = ref [] in
  let body_of = function
    | Sparse edits ->
      let b = Bytes.make Mem.page_size '\000' in
      List.iter (fun (i, v) -> Bytes.set b i (Char.chr v)) edits;
      b
    | Dense seed -> Rng.bytes (Rng.create ~seed:(Int64.of_int (seed + 7))) Mem.page_size
    | Dup i -> (
      match !pool with
      | [] -> Bytes.make Mem.page_size 'd'
      | l -> List.nth l (i mod List.length l))
  in
  let ok = ref true in
  let write mem writes =
    List.iter
      (fun (idx, spec) ->
        let b = body_of spec in
        pool := b :: !pool;
        Mem.set_page mem (Int64.add first (Int64.of_int idx)) b)
      writes
  in
  (* [decoded]: content hashes the receiving side has decoded so far *)
  let ship ~from_ ~mem_from ~to_ ~mem_to ~decoded =
    let p = Memsync.sync_meta from_ mem_from in
    let sum = List.fold_left (fun a (r : Memsync.page_record) -> a + r.Memsync.wire) 0 p.Memsync.records in
    if p.Memsync.wire_bytes <> sum then ok := false;
    List.iter
      (fun (r : Memsync.page_record) ->
        let h = Memsync.hash_page r.Memsync.data in
        if r.Memsync.enc = Memsync.Enc_hash_ref && not (Hashtbl.mem decoded h) then ok := false;
        Hashtbl.replace decoded h ())
      p.Memsync.records;
    ignore (Memsync.receive to_ mem_to p)
  in
  let down = Hashtbl.create 64 and up = Hashtbl.create 64 in
  List.iter
    (fun (sender_writes, receiver_writes) ->
      write mem_s sender_writes;
      ship ~from_:sender ~mem_from:mem_s ~to_:receiver ~mem_to:mem_r ~decoded:down;
      write mem_r receiver_writes;
      ship ~from_:receiver ~mem_from:mem_r ~to_:sender ~mem_to:mem_s ~decoded:up)
    script;
  for i = 0 to region_pages - 1 do
    let pfn = Int64.add first (Int64.of_int i) in
    if not (Bytes.equal (Mem.get_page mem_s pfn) (Mem.get_page mem_r pfn)) then ok := false
  done;
  List.iter
    (fun (ms, mem) -> if (Memsync.sync_meta ms mem).Memsync.records <> [] then ok := false)
    [ (sender, mem_s); (receiver, mem_r) ];
  !ok

let memsync_qcheck_reproduces =
  qtest ~count:15 "any mutation script reproduces exactly under every flag combination"
    gen_script
    (fun script -> List.for_all (fun combo -> run_script combo script) all_flag_combos)

(* ---- adaptive selection ----

   The sender skips the full-page range coding when a delta is provably
   shorter. Whatever it skips, every full-bodied record must carry exactly
   the first minimum of all four candidates, computed here the long way. *)

type page_edit =
  | Span of int * int * int  (* offset, length, seed: random bytes *)
  | Fill of int * int * int  (* offset, length, byte *)
  | Fresh of (int * int) list  (* a new zero page with these bytes set *)

let gen_edit_script =
  let open QCheck2.Gen in
  let len = frequency [ (3, int_range 1 16); (2, int_range 17 512); (2, int_range 513 4000) ] in
  let edit =
    frequency
      [
        (3, map3 (fun o l s -> Span (o, l, s)) (int_bound 4095) len small_nat);
        (2, map3 (fun o l b -> Fill (o, l, b)) (int_bound 4095) len (int_bound 255));
        (1, map (fun e -> Fresh e) (list_size (int_bound 24) (pair (int_bound 4095) (int_bound 255))));
      ]
  in
  list_size (int_range 1 5) (list_size (int_range 1 6) (pair (int_bound (region_pages - 1)) edit))

let exhaustive_choice ~previous current =
  let rc = Grt_util.Range_coder.encode in
  let candidates =
    (Memsync.Enc_raw, current)
    :: (Memsync.Enc_raw_rc, rc current)
    ::
    (match previous with
    | Some prev ->
      let d = Grt_util.Delta.diff ~old_:prev ~fresh:current in
      [ (Memsync.Enc_delta, d); (Memsync.Enc_delta_rc, rc d) ]
    | None -> [])
  in
  List.fold_left
    (fun (e0, b0) (e, b) -> if Bytes.length b < Bytes.length b0 then (e, b) else (e0, b0))
    (List.hd candidates) (List.tl candidates)

let selection_matches_exhaustive ~shared script =
  let cfg = cfg_of_combo (true, true, true) in
  let shared = if shared then Some (Memsync.Store.create ()) else None in
  let mem_s, _, sender, _, first = mk_pair ?shared cfg ~pages:region_pages in
  let shipped = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun round ->
      List.iter
        (fun (idx, edit) ->
          let pfn = Int64.add first (Int64.of_int idx) in
          let page = Bytes.copy (Mem.get_page mem_s pfn) in
          (match edit with
          | Span (o, l, seed) ->
            let l = min l (Mem.page_size - o) in
            Bytes.blit (Rng.bytes (Rng.create ~seed:(Int64.of_int (seed + 1))) l) 0 page o l
          | Fill (o, l, b) -> Bytes.fill page o (min l (Mem.page_size - o)) (Char.chr b)
          | Fresh edits ->
            Bytes.fill page 0 Mem.page_size '\000';
            List.iter (fun (i, v) -> Bytes.set page i (Char.chr v)) edits);
          Mem.set_page mem_s pfn page)
        round;
      let p = Memsync.sync_meta sender mem_s in
      List.iter
        (fun (r : Memsync.page_record) ->
          let previous = Hashtbl.find_opt shipped r.Memsync.pfn in
          (match r.Memsync.enc with
          | Memsync.Enc_hash_ref -> ()
          | enc ->
            let want_enc, want_body = exhaustive_choice ~previous r.Memsync.data in
            if enc <> want_enc || not (Bytes.equal r.Memsync.body want_body) then ok := false);
          Hashtbl.replace shipped r.Memsync.pfn r.Memsync.data)
        p.Memsync.records)
    script;
  !ok

let selection_qcheck =
  qtest ~count:40 "adaptive selection equals the exhaustive four-candidate minimum" gen_edit_script
    (fun script ->
      selection_matches_exhaustive ~shared:false script
      && selection_matches_exhaustive ~shared:true script)

(* ---- dirty tracking ---- *)

let addr_of first i = Int64.shift_left (Int64.add first (Int64.of_int i)) Mem.page_shift

let visited_scales_with_dirty () =
  let cfg = Mode.default_config Mode.Ours_mds in
  let mem_s, _mem_r, sender, _receiver, first = mk_pair cfg ~pages:64 in
  let p0 = Memsync.sync_meta sender mem_s in
  check Alcotest.int "first sync examines the whole region" 64 p0.Memsync.visited;
  check Alcotest.int "region size" 64 p0.Memsync.total;
  List.iter (fun i -> Mem.write_u8 mem_s (addr_of first i) 0xAB) [ 1; 7; 42 ];
  let p1 = Memsync.sync_meta sender mem_s in
  check Alcotest.int "revisits only the dirtied pages" 3 p1.Memsync.visited;
  check Alcotest.int "ships the dirtied pages" 3 (List.length p1.Memsync.records);
  check Alcotest.int "scope unchanged" 64 p1.Memsync.total;
  let p2 = Memsync.sync_meta sender mem_s in
  check Alcotest.int "idle sync visits nothing" 0 p2.Memsync.visited

(* ---- the scan against a full-compare reference while the meta set moves ----

   Scripts interleave page writes, new mappings under the registered root
   (so table pages appear between syncs), new Code/Cmd regions (one may sit
   on a table page, one above the dense limit) and idle syncs. After every
   sync a test-side reference walks the tables, unions the region pages,
   sorts, and byte-compares every meta page against its own baseline: the
   sender must ship exactly the pages the reference finds changed, in pfn
   order, over a scope of exactly the reference set. An idle re-sync then
   ships nothing and visits only the pages above the dense limit, which
   carry no examined stamp. *)

type meta_step =
  | Poke of int * int * int  (* writable-page pick, offset, value *)
  | Map of int * int  (* 1 GiB slot, 2 MiB slot: a fresh page mapped there *)
  | Fresh_region of bool * int  (* Code (else Cmd), pages *)
  | Table_region of int * int  (* table-page pick, pages: a region on a table page *)
  | High_region of int * int  (* pfn offset above the dense limit, pages *)
  | Sync

let gen_meta_script =
  let open QCheck2.Gen in
  let step =
    frequency
      [
        (5, map3 (fun i o v -> Poke (i, o, v)) nat (int_bound 4095) (int_bound 3));
        (3, map2 (fun a b -> Map (a, b)) (int_bound 3) (int_bound 7));
        (1, map2 (fun c n -> Fresh_region (c, n)) bool (int_range 1 3));
        (2, map2 (fun i n -> Table_region (i, n)) nat (int_range 1 3));
        (1, map2 (fun o n -> High_region (o, n)) (int_bound 7) (int_range 1 2));
        (3, return Sync);
      ]
  in
  list_size (int_range 4 40) step

let print_meta_step = function
  | Poke (i, o, v) -> Printf.sprintf "Poke(%d,%#x,%d)" i o v
  | Map (a, b) -> Printf.sprintf "Map(%d,%d)" a b
  | Fresh_region (c, n) -> Printf.sprintf "Fresh_region(%s,%d)" (if c then "code" else "cmd") n
  | Table_region (i, n) -> Printf.sprintf "Table_region(%d,%d)" i n
  | High_region (o, n) -> Printf.sprintf "High_region(%d,%d)" o n
  | Sync -> "Sync"

let scan_matches_reference cfg script =
  let fmt = Grt_gpu.Sku.Lpae_v7 in
  let mem = Mem.create () in
  let mmu = Grt_gpu.Mmu.create mem ~fmt in
  let root = Grt_gpu.Mmu.root_pa mmu in
  let ms = Memsync.create cfg in
  Memsync.register_pt_root ms ~root_pa:root;
  let region_pfns = ref [] and data_pfns = ref [] in
  let baseline = Hashtbl.create 64 in
  let tables () = Grt_gpu.Mmu.table_pages (Grt_gpu.Mmu.of_root mem ~fmt ~root) in
  let add_region usage pa pages =
    Memsync.register_region ms
      {
        Memsync.name = "r";
        meta = Session.usage_is_metastate usage;
        va = 0x4000_0000L;
        pa;
        model_bytes = pages * Mem.page_size;
        actual_bytes = pages * Mem.page_size;
      };
    let first = Mem.page_of_addr pa in
    region_pfns := List.init pages (fun i -> Int64.add first (Int64.of_int i)) @ !region_pfns
  in
  let ok = ref true in
  let sync () =
    let want_set = List.sort_uniq Int64.compare (tables () @ !region_pfns) in
    let want =
      List.filter_map
        (fun pfn ->
          let page = Mem.get_page mem pfn in
          match Hashtbl.find_opt baseline pfn with
          | Some b when Bytes.equal b page -> None
          | _ ->
            Hashtbl.replace baseline pfn page;
            Some (pfn, page))
        want_set
    in
    let p = Memsync.sync_meta ms mem in
    let shipped = List.map (fun (r : Memsync.page_record) -> (r.Memsync.pfn, r.Memsync.data)) p.Memsync.records in
    if shipped <> want then ok := false;
    if p.Memsync.total <> List.length want_set then ok := false;
    if Memsync.meta_pfns ms <> want_set then ok := false;
    let idle = Memsync.sync_meta ms mem in
    let high = List.length (List.filter (fun pfn -> Int64.to_int pfn >= Mem.dense_limit) want_set) in
    if idle.Memsync.records <> [] || idle.Memsync.visited <> high then ok := false
  in
  List.iter
    (function
      | Poke (i, off, v) -> (
        (* never a table page: scribbling there would corrupt the walk *)
        let tbl = tables () in
        match List.filter (fun p -> not (List.mem p tbl)) (!region_pfns @ !data_pfns) with
        | [] -> ()
        | l ->
          let pfn = List.nth l (i mod List.length l) in
          Mem.write_u8 mem (Int64.add (Int64.shift_left pfn Mem.page_shift) (Int64.of_int off)) v)
      | Map (g, m) ->
        let pa = Mem.alloc_pages mem 1 in
        let va = Int64.logor (Int64.shift_left (Int64.of_int g) 30) (Int64.shift_left (Int64.of_int m) 21) in
        Grt_gpu.Mmu.map_page mmu ~va ~pa ~flags:Grt_gpu.Mmu.rw_data;
        data_pfns := Mem.page_of_addr pa :: !data_pfns
      | Fresh_region (code, n) ->
        add_region (if code then Session.Code else Session.Cmd) (Mem.alloc_pages mem n) n
      | Table_region (i, n) ->
        let tbl = tables () in
        add_region Session.Cmd (Int64.shift_left (List.nth tbl (i mod List.length tbl)) Mem.page_shift) n
      | High_region (off, n) ->
        add_region Session.Code (Int64.shift_left (Int64.of_int (Mem.dense_limit + off)) Mem.page_shift) n
      | Sync -> sync ())
    script;
  sync ();
  !ok

let scan_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"the scan equals a full-compare reference as the meta set moves"
       ~print:(fun s -> String.concat "; " (List.map print_meta_step s))
       gen_meta_script
       (fun script ->
         List.for_all
           (fun combo -> scan_matches_reference (cfg_of_combo combo) script)
           [ (false, true, true); (true, true, true) ]))

(* ---- the incremental table walk against a full walk ----

   Memsync re-reads only the table pages whose stamp moved and keeps the
   sorted table set from their changed entries. Scripts map, remap and
   unmap pages and 2 MiB blocks (a block replaces a level-3 table, a page
   under a block shatters it), overwrite table descriptors so that one
   table is reached from several entries or none (aliases, cycles through
   the root, a leaf table read as a level-2 one), and add a second root.
   After every step the synced meta set must equal a full
   [Mmu.iter_table_pfns] walk of every root, sorted and deduplicated. *)

type walk_step =
  | Map_page of int * int * int  (* L1, L2, L3 index of the VA *)
  | Map_block of int * int
  | Unmap of int * int * int
  | Point of int * int * int  (* table pick, slot, target table pick *)
  | Clear of int * int  (* table pick, slot *)
  | Second_root

let print_walk_step = function
  | Map_page (a, b, c) -> Printf.sprintf "Map_page(%d,%d,%d)" a b c
  | Map_block (a, b) -> Printf.sprintf "Map_block(%d,%d)" a b
  | Unmap (a, b, c) -> Printf.sprintf "Unmap(%d,%d,%d)" a b c
  | Point (t, i, d) -> Printf.sprintf "Point(%d,%d,%d)" t i d
  | Clear (t, i) -> Printf.sprintf "Clear(%d,%d)" t i
  | Second_root -> "Second_root"

let gen_walk_script =
  let open QCheck2.Gen in
  let l1 = int_bound 2 and l2 = int_bound 3 and l3 = int_bound 7 in
  let step =
    frequency
      [
        (6, map3 (fun a b c -> Map_page (a, b, c)) l1 l2 l3);
        (2, map2 (fun a b -> Map_block (a, b)) l1 l2);
        (3, map3 (fun a b c -> Unmap (a, b, c)) l1 l2 l3);
        (2, map3 (fun t i d -> Point (t, i, d)) nat (int_bound 7) nat);
        (2, map2 (fun t i -> Clear (t, i)) nat (int_bound 7));
        (1, return Second_root);
      ]
  in
  list_size (int_range 1 40) step

let walk_matches_full_walk script =
  let fmt = Grt_gpu.Sku.Lpae_v7 in
  let mem = Mem.create () in
  let ms = Memsync.create (Mode.default_config Mode.Ours_mds) in
  let roots = ref [] in
  let add_root () =
    let mmu = Grt_gpu.Mmu.create mem ~fmt in
    Memsync.register_pt_root ms ~root_pa:(Grt_gpu.Mmu.root_pa mmu);
    roots := !roots @ [ mmu ]
  in
  add_root ();
  let full () =
    let acc = ref [] in
    List.iter (fun m -> Grt_gpu.Mmu.iter_table_pfns m (fun pfn -> acc := Int64.of_int pfn :: !acc)) !roots;
    List.sort_uniq Int64.compare !acc
  in
  let pick l i = List.nth l (i mod List.length l) in
  let mmu_for a = pick !roots a in
  let va a b c =
    Int64.of_int ((a lsl 30) lor (b lsl 21) lor (c lsl 12))
  in
  let step = function
    | Map_page (a, b, c) ->
      Grt_gpu.Mmu.map_page (mmu_for (a + b + c)) ~va:(va a b c) ~pa:(Mem.alloc_pages mem 1)
        ~flags:Grt_gpu.Mmu.rw_data
    | Map_block (a, b) ->
      Grt_gpu.Mmu.map_block (mmu_for (a + b)) ~va:(va a b 0) ~pa:(Int64.of_int ((8 + a + b) lsl 21))
        ~flags:Grt_gpu.Mmu.rw_data
    | Unmap (a, b, c) -> Grt_gpu.Mmu.unmap_page (mmu_for (a + b + c)) ~va:(va a b c)
    | Point (t, i, d) ->
      let tables = full () in
      let table = pick tables t and target = pick tables d in
      Mem.write_u64 mem
        (Int64.add (Int64.shift_left table Mem.page_shift) (Int64.of_int (8 * i)))
        (Int64.logor (Int64.shift_left target Mem.page_shift) 3L)
    | Clear (t, i) ->
      let table = pick (full ()) t in
      Mem.write_u64 mem (Int64.add (Int64.shift_left table Mem.page_shift) (Int64.of_int (8 * i))) 0L
    | Second_root -> if List.length !roots < 2 then add_root ()
  in
  let agrees () =
    ignore (Memsync.sync_meta ms mem);
    Memsync.meta_pfns ms = full ()
  in
  agrees () && List.for_all (fun s -> step s; agrees ()) script

let walk_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"the incremental table walk equals a full walk"
       ~print:(fun s -> String.concat "; " (List.map print_walk_step s))
       gen_walk_script walk_matches_full_walk)

(* ---- dedup ---- *)

let dedup_fires_on_reshipped_content () =
  let cfg = { (Mode.default_config Mode.Ours_mds) with Mode.memsync_tagged = true } in
  let mem_s, mem_r, sender, receiver, first = mk_pair cfg ~pages:4 in
  let ship () =
    let p = Memsync.sync_meta sender mem_s in
    ignore (Memsync.receive receiver mem_r p);
    p
  in
  ignore (ship ());
  let x = Rng.bytes (Rng.create ~seed:3L) Mem.page_size in
  let y = Rng.bytes (Rng.create ~seed:4L) Mem.page_size in
  Mem.set_page mem_s first x;
  (match (ship ()).Memsync.records with
  | [ r ] when r.Memsync.enc <> Memsync.Enc_hash_ref -> ()
  | _ -> Alcotest.fail "fresh content must ship full-bodied");
  Mem.set_page mem_s first y;
  ignore (ship ());
  Mem.set_page mem_s first x;
  (match (ship ()).Memsync.records with
  | [ r ] ->
    check Alcotest.bool "re-shipped content goes out as a hash reference" true
      (r.Memsync.enc = Memsync.Enc_hash_ref);
    check Alcotest.int "reference body is 8 bytes" 8 (Bytes.length r.Memsync.body);
    if r.Memsync.wire > 16 then Alcotest.failf "reference too expensive: %d" r.Memsync.wire
  | rs -> Alcotest.failf "expected one record, got %d" (List.length rs));
  check Alcotest.bytes "receiver resolved the reference" x (Mem.get_page mem_r first)

let hash_ref_unknown_rejected () =
  let store = Memsync.Store.create () in
  let mem = Mem.create () in
  let body = Bytes.create 8 in
  Bytes.set_int64_le body 0 0xDEAD_BEEFL;
  let logged = { Memsync.tagged = true; records = [ (4L, Memsync.Enc_hash_ref, body) ] } in
  match Memsync.install store mem (Memsync.payload_of_logged logged) with
  | Error (Memsync.Unknown_hash h) -> check Alcotest.int64 "names the missing hash" 0xDEAD_BEEFL h
  | Error e -> Alcotest.failf "wrong error: %s" (Memsync.decode_error_message e)
  | Ok _ -> Alcotest.fail "unknown reference decoded"

(* The store hashes learned bodies only when a lookup needs them. Against
   a store that hashes every body as it is learned, every lookup — of known
   content, of content learned again in another body, of a hash never
   learned — returns the very same body (physically), so the later body of
   a hash still replaces the earlier one. *)
let store_lazy_matches_eager =
  let contents =
    Array.init 4 (fun i -> Rng.bytes (Rng.create ~seed:(Int64.of_int (100 + i))) Mem.page_size)
  in
  let hashes = Array.map Memsync.hash_page contents in
  let gen =
    QCheck2.Gen.(list_size (int_bound 80) (pair (int_bound 2) (int_bound 11)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"lazy store == eager store"
       ~print:QCheck2.Print.(list (pair int int))
       gen
       (fun ops ->
         (* twelve bodies over four contents: repeats in distinct bodies *)
         let bodies = Array.init 12 (fun i -> Bytes.copy contents.(i mod 4)) in
         let store = Memsync.Store.create () and eager = Hashtbl.create 8 in
         let same h =
           match (Memsync.Store.find store h, Hashtbl.find_opt eager h) with
           | Some a, Some b -> a == b
           | None, None -> true
           | _ -> false
         in
         List.for_all
           (fun (op, i) ->
             match op with
             | 0 | 1 ->
               Memsync.Store.learn store bodies.(i);
               Hashtbl.replace eager (Memsync.hash_page bodies.(i)) bodies.(i);
               true
             | _ -> same hashes.(i mod 4) && same (Int64.of_int i))
           ops
         && Array.for_all same hashes))

(* ---- tagged records in recordings ---- *)

let recording_roundtrips_tagged_records () =
  let page = Rng.bytes (Rng.create ~seed:9L) Mem.page_size in
  let href = Bytes.create 8 in
  Bytes.set_int64_le href 0 (Memsync.hash_page page);
  let records =
    [
      (0x80001L, Memsync.Enc_raw, page);
      (0x80002L, Memsync.Enc_raw_rc, Grt_util.Range_coder.encode page);
      (0x80003L, Memsync.Enc_delta, Grt_util.Delta.diff ~old_:(Bytes.make Mem.page_size '\000') ~fresh:page);
      (0x80004L, Memsync.Enc_delta_rc, Bytes.of_string "rc-delta-body");
      (0x80005L, Memsync.Enc_hash_ref, href);
    ]
  in
  let r =
    {
      Recording.workload = "t";
      gpu_id = 0x1L;
      entries = [| Recording.Mem_load { Memsync.tagged = true; records } |];
      slots = [];
    }
  in
  match Recording.verify_and_parse ~key:"k" (Recording.sign ~key:"k" r) with
  | Ok r' ->
    check Alcotest.bool "entries survive the round trip" true
      (r'.Recording.entries = r.Recording.entries);
    check Alcotest.int "page count includes tagged records" 5
      (Recording.count_entries r' `Mem_pages)
  | Error e -> Alcotest.fail e

(* ---- end to end on MNIST ---- *)

let mnist_fastpath_wins_and_replays () =
  let ctx = E.create_ctx () in
  match E.memsync_workload ctx ~net:Grt_mlfw.Zoo.mnist with
  | [ base; fast ] ->
    check Alcotest.bool "baseline recording replays to the native output" true
      base.E.replay_matches;
    check Alcotest.bool "fast-path recording replays to the native output" true
      fast.E.replay_matches;
    if fast.E.down_wire_bytes >= base.E.down_wire_bytes then
      Alcotest.failf "fast path should shrink down wire: %d vs %d" fast.E.down_wire_bytes
        base.E.down_wire_bytes;
    if fast.E.up_wire_bytes > base.E.up_wire_bytes then
      Alcotest.failf "fast path should not grow up wire: %d vs %d" fast.E.up_wire_bytes
        base.E.up_wire_bytes;
    if fast.E.blob_bytes >= base.E.blob_bytes then
      Alcotest.failf "fast path should shrink the recording: %d vs %d" fast.E.blob_bytes
        base.E.blob_bytes;
    (* dirty tracking: the visit count tracks touched pages, not the
       (much larger) total metastate page count *)
    if fast.E.mpages_visited * 2 >= fast.E.mpages_meta then
      Alcotest.failf "visits should scale with dirtied pages: %d of %d" fast.E.mpages_visited
        fast.E.mpages_meta
  | rows -> Alcotest.failf "expected 2 rows, got %d" (List.length rows)

(* The codec memos hold the Zoo's working set: a second pass over the six
   NNs, at another seed, codes every page from the memo. With one table
   reset wholesale at its cap, that pass missed about 1,600 times. A tagged
   pass (the fleet's fast path, whose receiver decodes every coded page)
   then does the same for both directions: its second pass decodes every
   page from the memo too. The first pass needs the memos as a fresh
   process has them (stale entries from other tests could be in the
   generation it rotates out), so this group runs first. *)
let zoo_second_pass_never_misses () =
  let module M = Grt_util.Memo_stats in
  let record_zoo ?config seed =
    List.iter
      (fun net ->
        ignore
          (Grt.Orchestrate.record ~history:(Grt.Spec_history.create ()) ?config
             ~profile:Grt_net.Profile.wifi ~mode:Mode.Ours_mds ~sku:Grt_gpu.Sku.g71_mp8 ~net ~seed
             ()))
      Grt_mlfw.Zoo.all
  in
  let misses name =
    match List.find_opt (fun c -> M.name c = name) (M.all ()) with
    | Some c -> (M.snapshot c).M.s_misses
    | None -> Alcotest.failf "%s never registered" name
  in
  record_zoo 1L;
  M.reset_counters ();
  record_zoo 2L;
  check Alcotest.int "rc.encode misses on the second pass" 0 (misses "rc.encode");
  let config = Grt.Service.fastpath_cfg in
  record_zoo ~config 1L;
  M.reset_counters ();
  record_zoo ~config 2L;
  check Alcotest.int "rc.encode misses on the second tagged pass" 0 (misses "rc.encode");
  check Alcotest.int "rc.decode misses on the second tagged pass" 0 (misses "rc.decode")

let () =
  Alcotest.run "memsync"
    [
      ( "memo",
        [
          Alcotest.test_case "Zoo second pass never misses" `Quick zoo_second_pass_never_misses;
        ] );
      ( "fastpath",
        [
          memsync_qcheck_reproduces;
          selection_qcheck;
          scan_qcheck;
          walk_qcheck;
          Alcotest.test_case "visited scales with dirtied pages" `Quick visited_scales_with_dirty;
          Alcotest.test_case "dedup re-ships as hash reference" `Quick
            dedup_fires_on_reshipped_content;
          Alcotest.test_case "unknown hash reference rejected" `Quick hash_ref_unknown_rejected;
          store_lazy_matches_eager;
          Alcotest.test_case "tagged records roundtrip recordings" `Quick
            recording_roundtrips_tagged_records;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "MNIST fast path wins and replays" `Quick mnist_fastpath_wins_and_replays ] );
    ]
