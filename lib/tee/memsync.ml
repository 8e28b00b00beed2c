module Mem = Grt_gpu.Mem
module Mmu = Grt_gpu.Mmu

type region = {
  name : string;
  meta : bool;
  va : int64;
  pa : int64;
  model_bytes : int;
  actual_bytes : int;
}

type encoding = Enc_raw | Enc_raw_rc | Enc_delta | Enc_delta_rc | Enc_hash_ref

let encoding_to_int = function
  | Enc_raw -> 0
  | Enc_raw_rc -> 1
  | Enc_delta -> 2
  | Enc_delta_rc -> 3
  | Enc_hash_ref -> 4

let encoding_of_int = function
  | 0 -> Some Enc_raw
  | 1 -> Some Enc_raw_rc
  | 2 -> Some Enc_delta
  | 3 -> Some Enc_delta_rc
  | 4 -> Some Enc_hash_ref
  | _ -> None

let encoding_name = function
  | Enc_raw -> "raw"
  | Enc_raw_rc -> "raw+rc"
  | Enc_delta -> "delta"
  | Enc_delta_rc -> "delta+rc"
  | Enc_hash_ref -> "hash-ref"

(* Page content hash. The digest is wire format (hash-ref bodies ship it),
   so it must remain FNV-1a. *)
let hash_page b = Grt_util.Hashing.fnv1a_bytes b

(* Content-addressed page store: hash of a full page body -> the body.
   Collisions are guarded at the lookup sites with [Bytes.equal]. Bodies are
   shared, not copied: none is ever mutated (see memsync.mli).

   Receivers learn every body they install but resolve a hash reference
   rarely, so [learn] only appends the body to [pending]; [find] hashes the
   pending bodies, oldest first, into [table] before it looks up. A later
   body replaces an earlier one of the same hash in both stores, so every
   lookup sees what the store that hashed at [learn] would have held.
   Senders hash each changed page anyway and insert with [learn_hashed],
   after the bodies learned before it. *)
module Store = struct
  type s = {
    table : (int64, bytes) Hashtbl.t;
    mutable pending : bytes array;
    mutable n_pending : int;
  }

  let create () = { table = Hashtbl.create 64; pending = [||]; n_pending = 0 }

  let drain s =
    for i = 0 to s.n_pending - 1 do
      let b = s.pending.(i) in
      Hashtbl.replace s.table (hash_page b) b;
      s.pending.(i) <- Bytes.empty
    done;
    s.n_pending <- 0

  let learn s data =
    let n = s.n_pending in
    if n = Array.length s.pending then begin
      let grown = Array.make (max 16 (2 * n)) Bytes.empty in
      Array.blit s.pending 0 grown 0 n;
      s.pending <- grown
    end;
    s.pending.(n) <- data;
    s.n_pending <- n + 1

  (* [h] must be [hash_page data]: lets a sender that already hashed the
     page for its lookups insert it without hashing it again. *)
  let learn_hashed s h data =
    if s.n_pending > 0 then drain s;
    Hashtbl.replace s.table h data

  let find s h =
    if s.n_pending > 0 then drain s;
    Hashtbl.find_opt s.table h
end

(* A root or level-2 table page as of its generation stamp [gen] (-1:
   never read): [slots.(i)] is the pfn its descriptor [i] points to as a
   table, or -1. A level-2 table is reached from [mult] root descriptors. *)
type pt_table = { tpfn : int; mutable gen : int; slots : int array; mutable mult : int }

type t = {
  cfg : Mode.config;
  mutable regions : region list;
  mutable pt_roots : pt_table list;
  mutable pt_l2s : pt_table list;
  pt_refs : (int, int) Hashtbl.t;
      (* per table pfn, how often a full walk of every root visits it: as a
         root, from a root descriptor, or from a level-2 descriptor once per
         root descriptor reaching that table *)
  mutable region_pfns : int array;  (* pages of metastate regions, sorted, deduped *)
  mutable walk : int array;  (* [walk_len] pfns: the table set, sorted, deduped *)
  mutable walk_len : int;
  mutable walk_spare : int array;
  mutable fresh : int array;  (* [fresh_len] pfns whose count left 0 since the last walk *)
  mutable fresh_len : int;
  mutable gone : bool;  (* some count fell to 0 since the last walk *)
  mutable scan : int array;  (* [scan_len] pfns: the meta set the last sync scanned *)
  mutable scan_len : int;
  mutable examined : int array;
      (* per-pfn generation at last examination (-1 = never), or
         [installed g] when this endpoint's own receive installed the page,
         stamping it [g], and nothing has examined it since; grown on demand
         up to [Mem.dense_limit]; pages above it are examined on every
         sync *)
  baseline : (int, bytes) Hashtbl.t;
      (* last contents examined per pfn (int-keyed; pfns fit native ints) *)
  sent_store : Store.s;
      (* bodies this endpoint shipped (sender role): the peer decoded each
         of them, so a later identical page can go out as a hash reference *)
  recv_store : Store.s;
      (* bodies received from the peer (receiver role for the opposite
         direction): resolves inbound hash references *)
  shipped_data : (string, unit) Hashtbl.t; (* data regions the peer holds (Naive) *)
  shared : Store.s option;
      (* fleet-wide store shared by every session recorded under the same
         cache key: content another session already pushed to this client
         population travels as a hash reference (wire accounting only — the
         logged record keeps its full self-contained encoding) *)
}

let create ?shared cfg =
  {
    cfg;
    regions = [];
    pt_roots = [];
    pt_l2s = [];
    pt_refs = Hashtbl.create 256;
    region_pfns = [||];
    walk = [||];
    walk_len = 0;
    walk_spare = [||];
    fresh = Array.make 64 0;
    fresh_len = 0;
    gone = false;
    scan = Array.make 64 0;
    scan_len = 0;
    examined = [||];
    baseline = Hashtbl.create 256;
    sent_store = Store.create ();
    recv_store = Store.create ();
    shipped_data = Hashtbl.create 64;
    shared;
  }

(* Sorted union of the sorted, duplicate-free [a.(0..na)] and [b.(0..nb)]
   into [out] (at least [na + nb] long); returns the union's length. *)
let union_into (a : int array) na (b : int array) nb (out : int array) =
  if na > Array.length a || nb > Array.length b || na + nb > Array.length out then
    invalid_arg "Memsync.union_into";
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = Array.unsafe_get a !i and y = Array.unsafe_get b !j in
    if x < y then begin
      Array.unsafe_set out !k x;
      incr i
    end
    else begin
      Array.unsafe_set out !k y;
      incr j;
      if x = y then incr i
    end;
    incr k
  done;
  while !i < na do
    Array.unsafe_set out !k (Array.unsafe_get a !i);
    incr i;
    incr k
  done;
  while !j < nb do
    Array.unsafe_set out !k (Array.unsafe_get b !j);
    incr j;
    incr k
  done;
  !k

let register_region t r =
  t.regions <- r :: t.regions;
  if r.meta then begin
    (* Materialized pages of a region: its allocation is PA-contiguous. *)
    let first = Mem.page_index r.pa in
    let n = max 1 ((r.actual_bytes + Mem.page_size - 1) / Mem.page_size) in
    let have = Array.length t.region_pfns in
    let out = Array.make (have + n) 0 in
    let m = union_into t.region_pfns have (Array.init n (fun i -> first + i)) n out in
    t.region_pfns <- (if m = Array.length out then out else Array.sub out 0 m)
  end

let regions t = List.rev t.regions

let region_containing t ~va =
  List.find_opt
    (fun r ->
      Int64.compare va r.va >= 0
      && Int64.compare va (Int64.add r.va (Int64.of_int (max r.model_bytes r.actual_bytes))) < 0)
    t.regions

(* The table set is kept up to date from the table pages whose stamp
   moved: a walk re-reads a root or a level-2 table only then, applies its
   changed descriptor slots to [pt_refs], and merges the pfns whose count
   left or reached 0 into [walk]. A walk where no slot changed reuses the
   previous set. *)
let bump t pfn d =
  let c = d + match Hashtbl.find t.pt_refs pfn with c -> c | exception Not_found -> 0 in
  if c = 0 then begin
    Hashtbl.remove t.pt_refs pfn;
    t.gone <- true
  end
  else begin
    if c = d then begin
      if t.fresh_len = Array.length t.fresh then begin
        let bigger = Array.make (2 * t.fresh_len) 0 in
        Array.blit t.fresh 0 bigger 0 t.fresh_len;
        t.fresh <- bigger
      end;
      t.fresh.(t.fresh_len) <- pfn;
      t.fresh_len <- t.fresh_len + 1
    end;
    Hashtbl.replace t.pt_refs pfn c
  end

let new_table tpfn = { tpfn; gen = -1; slots = Array.make 512 (-1); mult = 0 }

let register_pt_root t ~root_pa =
  let root_pfn = Mem.page_index root_pa in
  if not (List.exists (fun r -> r.tpfn = root_pfn) t.pt_roots) then begin
    t.pt_roots <- new_table root_pfn :: t.pt_roots;
    bump t root_pfn 1
  end

(* Re-reads [n]'s page if its stamp moved, in one pass that compares each
   descriptor slot as it reads it. A changed root slot detaches the level-2
   table it pointed to and attaches the new one; a changed level-2 slot
   moves its level-3 table's count by [n.mult] (nothing while no root
   reaches [n]). Reads are pure, so applying each change as its slot is
   read counts what reading the whole page first would. *)
let rec refresh t mem n ~root =
  let g = Mem.page_gen_at mem n.tpfn in
  if g <> n.gen then begin
    n.gen <- g;
    let page = Mem.borrow_ro mem n.tpfn in
    let i = ref (Mmu.next_child_change page n.slots 0) in
    while !i < 512 do
      let a = n.slots.(!i) and b = Mmu.child_table page !i in
      n.slots.(!i) <- b;
      if root then begin
        if a >= 0 then detach t a;
        if b >= 0 then attach t mem b
      end
      else if n.mult > 0 then begin
        if a >= 0 then bump t a (-n.mult);
        if b >= 0 then bump t b n.mult
      end;
      i := Mmu.next_child_change page n.slots (!i + 1)
    done
  end

(* One more root descriptor points to the level-2 table [pfn]. *)
and attach t mem pfn =
  bump t pfn 1;
  let n =
    match List.find_opt (fun n -> n.tpfn = pfn) t.pt_l2s with
    | Some n -> n
    | None ->
      let n = new_table pfn in
      t.pt_l2s <- n :: t.pt_l2s;
      refresh t mem n ~root:false;
      n
  in
  n.mult <- n.mult + 1;
  Array.iter (fun c -> if c >= 0 then bump t c 1) n.slots

and detach t pfn =
  bump t pfn (-1);
  let n = List.find (fun n -> n.tpfn = pfn) t.pt_l2s in
  n.mult <- n.mult - 1;
  Array.iter (fun c -> if c >= 0 then bump t c (-1)) n.slots;
  if n.mult = 0 then t.pt_l2s <- List.filter (fun m -> m != n) t.pt_l2s

let rec refresh_all t mem ~root = function
  | [] -> ()
  | n :: rest ->
    refresh t mem n ~root;
    refresh_all t mem ~root rest

let insertion_sort a n =
  for i = 1 to n - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Keeps the pfns of [a.(0..n)] that a full walk still visits, in order;
   returns how many. *)
let still_visited t a n =
  let m = ref 0 in
  for i = 0 to n - 1 do
    if Hashtbl.mem t.pt_refs a.(i) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  !m

(* Brings [t.walk] up to date with every registered root's tables; returns
   how many distinct table pfns it holds, sorted ascending. Level-2 tables
   are refreshed first, so a root descriptor that attaches or detaches one
   counts its current slots. *)
let pt_walk t mem =
  refresh_all t mem ~root:false t.pt_l2s;
  refresh_all t mem ~root:true t.pt_roots;
  if t.fresh_len > 0 || t.gone then begin
    (* [fresh] is a handful of pfns, except on the first walk; a pfn can
       leave and come back in one walk, so both sides are filtered. *)
    insertion_sort t.fresh t.fresh_len;
    let nf = still_visited t t.fresh t.fresh_len in
    let m = ref (min nf 1) in
    for i = 1 to nf - 1 do
      if t.fresh.(i) <> t.fresh.(!m - 1) then begin
        t.fresh.(!m) <- t.fresh.(i);
        incr m
      end
    done;
    let nw = if t.gone then still_visited t t.walk t.walk_len else t.walk_len in
    if Array.length t.walk_spare < nw + !m then t.walk_spare <- Array.make (2 * (nw + !m)) 0;
    let n = union_into t.walk nw t.fresh !m t.walk_spare in
    let set = t.walk_spare in
    t.walk_spare <- t.walk;
    t.walk <- set;
    t.walk_len <- n;
    t.fresh_len <- 0;
    t.gone <- false
  end;
  t.walk_len

(* Grows [t.examined] to cover [top] (capped at the dense limit). *)
let track t top =
  let top = min top (Mem.dense_limit - 1) in
  let have = Array.length t.examined in
  if top >= have then begin
    let len = ref (max have 1024) in
    while !len <= top do
      len := 2 * !len
    done;
    let grown = Array.make (min !len Mem.dense_limit) (-1) in
    Array.blit t.examined 0 grown 0 have;
    t.examined <- grown
  end

(* The [examined] mark of a page this endpoint installed at stamp [g]
   (stamps are at least 1 once written, so marks are below -2 and never
   pass for an examination). *)
let installed g = -2 - g

(* The meta set (table pages ∪ metastate-region pages) into [t.scan], with
   [t.examined] grown to cover every pfn of it below the dense limit. *)
let collect_meta t mem =
  let np = pt_walk t mem and nr = Array.length t.region_pfns in
  if Array.length t.scan < np + nr then t.scan <- Array.make (2 * (np + nr)) 0;
  let n = union_into t.walk np t.region_pfns nr t.scan in
  t.scan_len <- n;
  if n > 0 then track t t.scan.(n - 1)

let meta_pfns t = List.init t.scan_len (fun i -> Int64.of_int t.scan.(i))

let protect_meta t mem =
  for i = 0 to t.scan_len - 1 do
    Mem.protect_page mem t.scan.(i)
  done

type page_record = {
  pfn : int64;
  data : bytes;  (* full page contents *)
  enc : encoding;
  body : bytes;  (* wire form of the contents under [enc] *)
  wire : int;  (* bytes charged to the link for this record, header included *)
  cross : bool;
      (* a cross-session dedup hit: the shared store held this content, so
         only a hash reference is charged to the wire. [enc]/[body] keep the
         full encoding, which is what gets logged — recordings stay
         self-contained and byte-identical with or without sharing. *)
}

(* Declared before [sync_payload], whose same-named fields stay the
   default for unannotated uses. *)
type logged = { tagged : bool; records : (int64 * encoding * bytes) list }

type sync_payload = {
  records : page_record list;
  tagged : bool;
  wire_bytes : int;
  raw_bytes : int;
  visited : int;
  total : int;
}

(* An untagged receiver is sent whole pages, so an untagged record logs as
   a raw one whatever its wire encoding was. *)
let logged (p : sync_payload) : logged =
  {
    tagged = p.tagged;
    records =
      List.map
        (fun r -> if p.tagged then (r.pfn, r.enc, r.body) else (r.pfn, Enc_raw, r.data))
        p.records;
  }

let per_page_header = 12 (* untagged wire: fixed pfn + length per page *)

let varint_size = Grt_util.Byte_buf.varint_size

(* Tagged wire accounting mirrors the record's serialized form exactly:
   varint pfn + one encoding-tag byte + varint body length + body. *)
let tagged_record_wire ~pfn ~body =
  varint_size (Int64.to_int pfn) + 1 + varint_size (Bytes.length body) + Bytes.length body

let hash_ref_wire ~pfn = varint_size (Int64.to_int pfn) + 1 + varint_size 8 + 8

(* The cheapest of the four self-contained encodings. A delta body shorter
   than any possible range coding of the page beats [Enc_raw_rc] whatever
   it codes to, so that encode (the most expensive candidate) is skipped.
   Dropping a strictly losing candidate leaves the first minimum of the
   fold unchanged. *)
let adaptive_choice ~previous current =
  let deltas =
    match previous with
    | Some prev ->
      let d = Grt_util.Delta.diff ~old_:prev ~fresh:current in
      [ (Enc_delta, d); (Enc_delta_rc, Grt_util.Range_coder.encode d) ]
    | None -> []
  in
  let best_delta = List.fold_left (fun m (_, b) -> min m (Bytes.length b)) max_int deltas in
  let raw_rc =
    if best_delta < Grt_util.Range_coder.min_coded_length (Bytes.length current) then []
    else [ (Enc_raw_rc, Grt_util.Range_coder.encode current) ]
  in
  let candidates = ((Enc_raw, current) :: raw_rc) @ deltas in
  List.fold_left
    (fun (e0, b0) (e, b) -> if Bytes.length b < Bytes.length b0 then (e, b) else (e0, b0))
    (List.hd candidates) (List.tl candidates)

let holds store h current =
  match Store.find store h with Some b -> Bytes.equal b current | None -> false

(* The one encoder chain. Under the tagged format a body the peer already
   decoded goes out as a hash reference, and any other page takes the
   cheapest encoding; otherwise the configured delta, then range-code
   chain decides. Only the wire charge differs by format: tagged records
   cost their serialized size, untagged ones their body plus a fixed
   header — or, with [compress_dumps] off, the full page plus that header,
   since the untagged receiver is sent whole pages. *)
let encode t ~previous ~pfn ~current =
  let cfg = t.cfg in
  let tagged = cfg.Mode.memsync_tagged in
  let h = if tagged then hash_page current else 0L in
  let enc, body =
    if tagged && holds t.sent_store h current then begin
      (* The sender put this exact body on the wire before, so the
         receiver has, by construction, decoded and stored it. *)
      let body = Bytes.create 8 in
      Bytes.set_int64_le body 0 h;
      (Enc_hash_ref, body)
    end
    else if tagged then adaptive_choice ~previous current
    else
      match (cfg.Mode.delta_dumps, previous) with
      | true, Some prev ->
        let d = Grt_util.Delta.diff ~old_:prev ~fresh:current in
        if cfg.Mode.compress_dumps then (Enc_delta_rc, Grt_util.Range_coder.encode d)
        else (Enc_delta, d)
      | _ ->
        if cfg.Mode.compress_dumps then (Enc_raw_rc, Grt_util.Range_coder.encode current)
        else (Enc_raw, current)
  in
  if not tagged then
    let charged = if cfg.Mode.compress_dumps then body else current in
    let wire = Bytes.length charged + per_page_header in
    { pfn; data = current; enc; body; wire; cross = false }
  else begin
    (* Cross-session dedup: content an earlier same-key session shipped to
       this client population needs only a hash reference on the wire. The
       record keeps its full encoding, so the logged recording is identical
       with or without a shared store; only the wire charge and the
       [cross] flag change. *)
    let cross =
      enc <> Enc_hash_ref
      && match t.shared with Some sh -> holds sh h current | None -> false
    in
    let wire = if cross then hash_ref_wire ~pfn else tagged_record_wire ~pfn ~body in
    Store.learn_hashed t.sent_store h current;
    (match t.shared with Some sh -> Store.learn_hashed sh h current | None -> ());
    { pfn; data = current; enc; body; wire; cross }
  end

(* Stand-in contents of a never-materialized page: compared against (and
   read as a delta base) but never written through. *)
let zero_page = Bytes.make Mem.page_size '\000'

let sync_meta t mem =
  collect_meta t mem;
  let pfns = t.scan and total = t.scan_len and examined = t.examined in
  let tracked = Array.length examined in
  let records = ref [] and wire = ref 0 and raw = ref 0 and visited = ref 0 in
  (* Stamps only increase, and an unchanged stamp means unchanged bytes:
     a page whose stamp has not moved since it was last examined holds what
     it held then, so only the others are visited. *)
  let i = ref (Mem.next_moved mem pfns ~len:total ~seen:examined 0) in
  while !i < total do
    let pfn = Array.unsafe_get pfns !i in
    let gen = Mem.page_gen_at mem pfn in
    let seen = if pfn < tracked then Array.unsafe_get examined pfn else -1 in
    incr visited;
    if pfn < tracked then Array.unsafe_set examined pfn gen;
    (* A page this endpoint installed and nobody wrote since holds its
       baseline: no lookup, no compare. Any other page is compared in place
       against the baseline and copied only when it actually changed. That
       copy is the page's one body: the record, both baselines and every
       store share it read-only. *)
    if seen <> installed gen then begin
      let view = Mem.borrow_ro mem pfn in
      let view = if view == Bytes.empty then zero_page else view in
      let prev = try Hashtbl.find t.baseline pfn with Not_found -> Bytes.empty in
      if not (prev != Bytes.empty && Bytes.equal prev view) then begin
        raw := !raw + Mem.page_size;
        let current = Bytes.copy view in
        let previous = if prev == Bytes.empty then None else Some prev in
        let r = encode t ~previous ~pfn:(Int64.of_int pfn) ~current in
        records := r :: !records;
        wire := !wire + r.wire;
        Hashtbl.replace t.baseline pfn current
      end
    end;
    i := Mem.next_moved mem pfns ~len:total ~seen:examined (!i + 1)
  done;
  {
    records = List.rev !records;
    tagged = t.cfg.Mode.memsync_tagged;
    wire_bytes = !wire;
    raw_bytes = !raw;
    visited = !visited;
    total;
  }

type decode_error = Malformed of string | Unknown_hash of int64 | Needs_memory

let decode_error_message = function
  | Malformed m -> "malformed page record: " ^ m
  | Unknown_hash h -> Printf.sprintf "hash reference to unknown page content %016Lx" h
  | Needs_memory -> "delta record decoded without the memory it patches"

let full_page b =
  if Bytes.length b = Mem.page_size then Ok b
  else Error (Malformed (Printf.sprintf "a %d-byte body is not a page" (Bytes.length b)))

(* The one decoder of coded bodies: writes the page over [dst], which
   holds the base page when [enc] is a delta. *)
let decode_over dst enc body =
  match enc with
  | Enc_raw_rc -> Grt_util.Range_coder.decode_into body dst
  | Enc_delta -> Grt_util.Delta.apply_in_place ~page:dst ~delta:body
  | Enc_delta_rc -> Grt_util.Delta.apply_in_place ~page:dst ~delta:(Grt_util.Range_coder.decode body)
  | Enc_raw | Enc_hash_ref -> invalid_arg "Memsync.decode_over: not a coded body"

(* [decode_over] into [dst], a page the caller hands over. *)
let decoded dst enc body =
  match decode_over dst enc body with () -> Ok dst | exception Failure m -> Error (Malformed m)

let decode_record store mem pfn enc body =
  match enc with
  | Enc_raw -> full_page body
  | Enc_raw_rc -> decoded (Bytes.create Mem.page_size) enc body
  | Enc_delta | Enc_delta_rc -> (
    match mem with
    | None -> Error Needs_memory
    | Some mem ->
      (* The live page is only read: the delta patches a copy. *)
      let base = Mem.borrow_ro mem (Int64.to_int pfn) in
      decoded (if base == Bytes.empty then Bytes.make Mem.page_size '\000' else Bytes.copy base) enc body)
  | Enc_hash_ref -> (
    if Bytes.length body <> 8 then Error (Malformed "hash reference is not 8 bytes")
    else
      let h = Bytes.get_int64_le body 0 in
      match Store.find store h with Some page -> Ok page | None -> Error (Unknown_hash h))

(* Installs one decoded page into [mem]; the page itself is kept by the
   caller, and learned by [store] when [tagged]. *)
let install_record store mem ~tagged pfn enc body =
  match decode_record store (Some mem) pfn enc body with
  | Error _ as e -> e
  | Ok page as ok ->
    Mem.set_page mem pfn page;
    if tagged then Store.learn store page;
    ok

let install store mem (l : logged) =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | (pfn, enc, body) :: rest -> (
      match install_record store mem ~tagged:l.tagged pfn enc body with
      | Error _ as e -> e
      | Ok page -> go ((pfn, page) :: acc) rest)
  in
  go [] l.records

let receive_failed e = failwith ("Memsync.receive: " ^ decode_error_message e)

(* The receiver holds [page] at [pfn] now: teach the baseline that the peer
   holds it too (so it is not echoed back), and mark the stamp the install
   left, so the next scan takes the page for its baseline without a lookup
   or a compare. *)
let hold t mem pfn page =
  let p = Int64.to_int pfn in
  Hashtbl.replace t.baseline p page;
  if p >= 0 && p < Mem.dense_limit then begin
    track t p;
    Array.unsafe_set t.examined p (installed (Mem.page_gen_at mem p))
  end

let receive t mem (l : logged) =
  List.map
    (fun (pfn, enc, body) ->
      match install_record t.recv_store mem ~tagged:l.tagged pfn enc body with
      | Ok page ->
        hold t mem pfn page;
        (pfn, page)
      | Error e -> receive_failed e)
    l.records

(* One sender record, received without its logged form. A coded body is
   decoded over the live page itself, which must then hold the sender's
   page: the receiver keeps that body, as it keeps an untagged record's
   full page, so nothing is allocated or copied twice. *)
let receive_sent t mem ~tagged (r : page_record) =
  match if tagged then r.enc else Enc_raw with
  | (Enc_raw | Enc_hash_ref) as enc -> (
    match install_record t.recv_store mem ~tagged r.pfn enc (if tagged then r.body else r.data) with
    | Ok page -> hold t mem r.pfn page
    | Error e -> receive_failed e)
  | Enc_raw_rc | Enc_delta | Enc_delta_rc ->
    let live = Mem.page_rw mem r.pfn in
    (match decode_over live r.enc r.body with
    | () -> ()
    | exception Failure m -> receive_failed (Malformed m));
    if not (Bytes.equal live r.data) then failwith "Memsync.receive: a page decoded to other bytes than were sent";
    Store.learn t.recv_store r.data;
    hold t mem r.pfn r.data

let receive_payload t mem (p : sync_payload) = List.iter (receive_sent t mem ~tagged:p.tagged) p.records

let note_shipped t pfn contents =
  Hashtbl.replace t.baseline (Int64.to_int pfn) contents;
  if t.cfg.Mode.memsync_tagged then begin
    let h = hash_page contents in
    Store.learn_hashed t.sent_store h contents;
    match t.shared with Some sh -> Store.learn_hashed sh h contents | None -> ()
  end

(* Walk the descriptor chain in local memory and apply [f] to every data
   region it references, tagged with its role. *)
let fold_chain_regions t mem ~chain_va f =
  let desc_pa_of_va va =
    match region_containing t ~va with
    | Some r -> Some (Int64.add r.pa (Int64.sub va r.va))
    | None -> None
  in
  let note role va =
    if not (Int64.equal va 0L) then
      match region_containing t ~va with
      | Some r when not r.meta -> f role r
      | _ -> ()
  in
  let rec walk va guard =
    if guard > 0 && not (Int64.equal va 0L) then
      match desc_pa_of_va va with
      | None -> ()
      | Some pa -> (
        match Grt_gpu.Job_desc.read mem ~pa with
        | Error _ -> ()
        | Ok d ->
          note `In d.Grt_gpu.Job_desc.input_va;
          note `In d.Grt_gpu.Job_desc.input2_va;
          note `In d.Grt_gpu.Job_desc.bias_va;
          note `Out d.Grt_gpu.Job_desc.output_va;
          walk d.Grt_gpu.Job_desc.next_va (guard - 1))
  in
  walk chain_va 64

let naive_down_bytes t mem ~chain_va =
  let total = ref 0 in
  fold_chain_regions t mem ~chain_va (fun _role r ->
      if not (Hashtbl.mem t.shipped_data r.name) then begin
        Hashtbl.add t.shipped_data r.name ();
        total := !total + r.model_bytes
      end);
  !total

let naive_up_bytes t mem ~chain_va =
  let seen = Hashtbl.create 4 in
  let total = ref 0 in
  fold_chain_regions t mem ~chain_va (fun role r ->
      match role with
      | `Out ->
        if not (Hashtbl.mem seen r.name) then begin
          Hashtbl.add seen r.name ();
          total := !total + r.model_bytes
        end
      | `In -> ());
  !total
