module Byte_buf = Grt_util.Byte_buf

type poll_cond = Until_set | Until_clear

type entry =
  | Reg_write of { reg : int; value : int64 }
  | Reg_read of { reg : int; value : int64; verify : bool }
  | Poll of { reg : int; mask : int64; cond : poll_cond; max_iters : int; spin_ns : int64 }
  | Wait_irq of { line : int }
  | Mem_load of { pages : (int64 * bytes) list }
  | Mem_load_enc of { records : (int64 * Memsync.encoding * bytes) list }

(* Entry log under construction (newest first), with O(1) length — the
   speculation machinery marks log positions on every commit, so length
   must not cost a traversal. Shared by the shim and its recovery
   replayer. *)
type log = { mutable items : entry list; mutable len : int }

let new_log () = { items = []; len = 0 }

let log_push l e =
  l.items <- e :: l.items;
  l.len <- l.len + 1

let irq_line_to_int = function
  | Grt_gpu.Device.Job_irq -> 0
  | Grt_gpu.Device.Gpu_irq -> 1
  | Grt_gpu.Device.Mmu_irq -> 2

let irq_line_of_int = function
  | 0 -> Some Grt_gpu.Device.Job_irq
  | 1 -> Some Grt_gpu.Device.Gpu_irq
  | 2 -> Some Grt_gpu.Device.Mmu_irq
  | _ -> None

type slot = {
  slot_name : string;
  kind : [ `Input | `Output | `Param ];
  va : int64;
  pa : int64;
  actual_bytes : int;
  model_bytes : int;
}

type t = {
  workload : string;
  gpu_id : int64;
  entries : entry array;
  slots : slot list;
}

let input_slot t = List.find_opt (fun s -> s.kind = `Input) t.slots
let output_slot t = List.find_opt (fun s -> s.kind = `Output) t.slots
let param_slots t = List.filter (fun s -> s.kind = `Param) t.slots

let magic = 0x47525452 (* "GRTR" *)
let version = 1
let version_chunked = 2

let default_chunk_entries = 64

let kind_to_int = function `Input -> 0 | `Output -> 1 | `Param -> 2

let kind_of_int = function 0 -> Some `Input | 1 -> Some `Output | 2 -> Some `Param | _ -> None

let add_entry buf = function
  | Reg_write { reg; value } ->
    Byte_buf.add_u8 buf 1;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf value
  | Reg_read { reg; value; verify } ->
    Byte_buf.add_u8 buf 2;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf value;
    Byte_buf.add_u8 buf (if verify then 1 else 0)
  | Poll { reg; mask; cond; max_iters; spin_ns } ->
    Byte_buf.add_u8 buf 3;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf mask;
    Byte_buf.add_u8 buf (match cond with Until_set -> 1 | Until_clear -> 0);
    Byte_buf.add_varint buf max_iters;
    Byte_buf.add_i64 buf spin_ns
  | Wait_irq { line } ->
    Byte_buf.add_u8 buf 4;
    Byte_buf.add_u8 buf line
  | Mem_load { pages } ->
    Byte_buf.add_u8 buf 5;
    Byte_buf.add_varint buf (List.length pages);
    List.iter
      (fun (pfn, data) ->
        Byte_buf.add_i64 buf pfn;
        Byte_buf.add_varint buf (Bytes.length data);
        Byte_buf.add_bytes buf data)
      pages
  | Mem_load_enc { records } ->
    Byte_buf.add_u8 buf 6;
    Byte_buf.add_varint buf (List.length records);
    List.iter
      (fun (pfn, enc, body) ->
        (* pfns are page frame numbers, well within varint range *)
        Byte_buf.add_varint buf (Int64.to_int pfn);
        Byte_buf.add_u8 buf (Memsync.encoding_to_int enc);
        Byte_buf.add_varint buf (Bytes.length body);
        Byte_buf.add_bytes buf body)
      records

let read_entry r =
  match Byte_buf.Reader.u8 r with
  | 1 ->
    let reg = Byte_buf.Reader.u32 r in
    let value = Byte_buf.Reader.i64 r in
    Reg_write { reg; value }
  | 2 ->
    let reg = Byte_buf.Reader.u32 r in
    let value = Byte_buf.Reader.i64 r in
    let verify = Byte_buf.Reader.u8 r = 1 in
    Reg_read { reg; value; verify }
  | 3 ->
    let reg = Byte_buf.Reader.u32 r in
    let mask = Byte_buf.Reader.i64 r in
    let cond = if Byte_buf.Reader.u8 r = 1 then Until_set else Until_clear in
    let max_iters = Byte_buf.Reader.varint r in
    let spin_ns = Byte_buf.Reader.i64 r in
    Poll { reg; mask; cond; max_iters; spin_ns }
  | 4 ->
    let line = Byte_buf.Reader.u8 r in
    (* Reject unmapped IRQ lines here, where the blob is being validated —
       not at replay time, where they would surface as a confusing
       [Irq_mismatch] divergence against a line that cannot exist. *)
    if irq_line_of_int line = None then
      failwith (Printf.sprintf "recording: invalid IRQ line %d" line);
    Wait_irq { line }
  | 5 ->
    let n = Byte_buf.Reader.varint r in
    let pages =
      List.init n (fun _ ->
          let pfn = Byte_buf.Reader.i64 r in
          let len = Byte_buf.Reader.varint r in
          (pfn, Byte_buf.Reader.bytes r len))
    in
    Mem_load { pages }
  | 6 ->
    let n = Byte_buf.Reader.varint r in
    let records =
      List.init n (fun _ ->
          let pfn = Int64.of_int (Byte_buf.Reader.varint r) in
          let enc =
            match Memsync.encoding_of_int (Byte_buf.Reader.u8 r) with
            | Some e -> e
            | None -> failwith "recording: bad page encoding tag"
          in
          let len = Byte_buf.Reader.varint r in
          (pfn, enc, Byte_buf.Reader.bytes r len))
    in
    Mem_load_enc { records }
  | tag -> failwith (Printf.sprintf "recording: unknown entry tag %d" tag)

let add_slot buf s =
  Byte_buf.add_string buf s.slot_name;
  Byte_buf.add_u8 buf (kind_to_int s.kind);
  Byte_buf.add_i64 buf s.va;
  Byte_buf.add_i64 buf s.pa;
  Byte_buf.add_varint buf s.actual_bytes;
  Byte_buf.add_varint buf s.model_bytes

let read_slot r =
  let slot_name = Byte_buf.Reader.string r in
  let kind =
    match kind_of_int (Byte_buf.Reader.u8 r) with
    | Some k -> k
    | None -> failwith "recording: bad slot kind"
  in
  let va = Byte_buf.Reader.i64 r in
  let pa = Byte_buf.Reader.i64 r in
  let actual_bytes = Byte_buf.Reader.varint r in
  let model_bytes = Byte_buf.Reader.varint r in
  { slot_name; kind; va; pa; actual_bytes; model_bytes }

let serialize t =
  let buf = Byte_buf.create ~capacity:4096 () in
  Byte_buf.add_u32 buf magic;
  Byte_buf.add_u16 buf version;
  Byte_buf.add_string buf t.workload;
  Byte_buf.add_i64 buf t.gpu_id;
  Byte_buf.add_varint buf (List.length t.slots);
  List.iter (add_slot buf) t.slots;
  Byte_buf.add_varint buf (Array.length t.entries);
  Array.iter (add_entry buf) t.entries;
  Byte_buf.contents buf

let deserialize data =
  try
    let r = Byte_buf.Reader.of_bytes data in
    if Byte_buf.Reader.u32 r <> magic then Error "recording: bad magic"
    else if Byte_buf.Reader.u16 r <> version then Error "recording: unsupported version"
    else begin
      let workload = Byte_buf.Reader.string r in
      let gpu_id = Byte_buf.Reader.i64 r in
      let n_slots = Byte_buf.Reader.varint r in
      let slots = List.init n_slots (fun _ -> read_slot r) in
      let n_entries = Byte_buf.Reader.varint r in
      let entries = Array.init n_entries (fun _ -> read_entry r) in
      Ok { workload; gpu_id; entries; slots }
    end
  with Failure msg -> Error msg

(* ---- chunked format (version 2) ----

   The v2 blob splits the entry log into chunks so verification can stream:

     header  := magic ∥ u16 2 ∥ workload ∥ gpu_id ∥ slots
                ∥ varint total_entries ∥ varint n_chunks
                ∥ n_chunks × (varint entry_count ∥ varint byte_len ∥ i64 hash)
                ∥ i64 merkle_root
     blob    := header ∥ i64 mac(header) ∥ chunk bodies

   Only the header is MACed; each chunk body is covered by its signed FNV
   hash, and the Merkle root over the chunk hashes names the whole entry
   log for attestation. A replayer may therefore verify the header once and
   check each chunk hash just before executing that chunk (streaming), while
   [verify_and_parse] keeps the eager everything-up-front contract. *)

type chunk = {
  chunk_first : int;
  chunk_count : int;
  chunk_hash : int64;
  chunk_raw : bytes;
}

type verified = {
  vrec : t;
  vversion : int;
  vchunks : chunk array;
  vroot : int64;
}

let entries_bytes entries =
  let buf = Byte_buf.create ~capacity:4096 () in
  Array.iter (add_entry buf) entries;
  Byte_buf.contents buf

(* Merkle fold over the leaf hashes: pairwise [Hashing.combine], odd leaf
   promoted; a single leaf is its own root; zero leaves hash the empty
   string (an empty entry log still has a well-defined identity). *)
let merkle_root hashes =
  let rec up = function
    | [] -> Grt_util.Hashing.fnv1a_bytes Bytes.empty
    | [ h ] -> h
    | hs ->
      let rec pair = function
        | a :: b :: rest -> Grt_util.Hashing.combine a b :: pair rest
        | [ a ] -> [ a ]
        | [] -> []
      in
      up (pair hs)
  in
  up hashes

let sign_v1 ~key t =
  let body = serialize t in
  let buf = Byte_buf.create ~capacity:(Bytes.length body + 8) () in
  Byte_buf.add_bytes buf body;
  Byte_buf.add_i64 buf (Grt_tee.Crypto.mac ~key body);
  Byte_buf.contents buf

(* Serialize the whole entry log once, recording where each chunk of
   [chunk_entries] entries ends: [bounds.(i)] is the byte offset at which
   chunk [i] starts, [bounds.(n_chunks)] the total length. Chunk bodies and
   their hashes are then slices of this one buffer — no per-chunk copies. *)
let chunk_bounds ~chunk_entries entries =
  let n = Array.length entries in
  let n_chunks = (n + chunk_entries - 1) / chunk_entries in
  let buf = Byte_buf.create ~capacity:4096 () in
  let bounds = Array.make (n_chunks + 1) 0 in
  Array.iteri
    (fun i e ->
      add_entry buf e;
      if (i + 1) mod chunk_entries = 0 then bounds.((i + 1) / chunk_entries) <- Byte_buf.length buf)
    entries;
  bounds.(n_chunks) <- Byte_buf.length buf;
  (Byte_buf.contents buf, bounds)

(* [sign] and [verify_and_parse] are pure functions of their inputs, and the
   recording service re-signs (and every client re-verifies) byte-identical
   logs whenever the same workload is recorded again — the observation
   behind the service's content-addressed recording cache. Small
   content-keyed memos therefore short-circuit the work on repeats; a hit
   is trusted only after comparing the stored input in full, so collisions
   cannot leak a wrong blob.

   [sign]'s memo is keyed on the *entry stream* rather than the serialized
   body, so a hit skips the chunk serialization pass as well as the FNV
   walk: scalar fields mix into the key directly, page payloads via the
   sparse word-sampled hash, and the hit guard is a structural comparison
   with [Bytes.equal] on every payload. The stored snapshot deep-copies
   payload bytes, so callers that keep mutating their page buffers cannot
   poison the memo. *)
let memo_cap = 32

let entry_mix h v = (h lxor v) * 0x100000001B3

let entry_key h = function
  | Reg_write { reg; value } -> entry_mix (entry_mix h (1 + reg)) (Int64.to_int value)
  | Reg_read { reg; value; verify } ->
    entry_mix (entry_mix (entry_mix h 2) (reg lxor Int64.to_int value)) (if verify then 3 else 4)
  | Poll { reg; mask; cond; max_iters; spin_ns } ->
    let h = entry_mix (entry_mix h 5) (reg lxor Int64.to_int mask) in
    entry_mix
      (entry_mix h (match cond with Until_set -> 6 | Until_clear -> 7))
      (max_iters lxor Int64.to_int spin_ns)
  | Wait_irq { line } -> entry_mix h (8 + line)
  | Mem_load { pages } ->
    List.fold_left
      (fun h (pfn, b) -> Grt_util.Hashing.quick_sparse ~seed:(entry_mix h (Int64.to_int pfn)) b)
      (entry_mix h 9) pages
  | Mem_load_enc { records } ->
    List.fold_left
      (fun h (pfn, enc, b) ->
        let h = entry_mix (entry_mix h (Int64.to_int pfn)) (Memsync.encoding_to_int enc) in
        Grt_util.Hashing.quick_sparse ~seed:h b)
      (entry_mix h 10) records

let entry_eq a b =
  match (a, b) with
  | Reg_write x, Reg_write y -> x.reg = y.reg && Int64.equal x.value y.value
  | Reg_read x, Reg_read y ->
    x.reg = y.reg && Int64.equal x.value y.value && x.verify = y.verify
  | Poll x, Poll y ->
    x.reg = y.reg && Int64.equal x.mask y.mask && x.cond = y.cond && x.max_iters = y.max_iters
    && Int64.equal x.spin_ns y.spin_ns
  | Wait_irq x, Wait_irq y -> x.line = y.line
  | Mem_load x, Mem_load y ->
    List.equal
      (fun (p, b) (q, c) -> Int64.equal p q && Bytes.equal b c)
      x.pages y.pages
  | Mem_load_enc x, Mem_load_enc y ->
    List.equal
      (fun (p, e, b) (q, f, c) -> Int64.equal p q && e = f && Bytes.equal b c)
      x.records y.records
  | _ -> false

let entries_eq a b = Array.length a = Array.length b && Array.for_all2 entry_eq a b

let entry_copy = function
  | Mem_load { pages } -> Mem_load { pages = List.map (fun (p, b) -> (p, Bytes.copy b)) pages }
  | Mem_load_enc { records } ->
    Mem_load_enc { records = List.map (fun (p, e, b) -> (p, e, Bytes.copy b)) records }
  | e -> e

let sign_memo : (int, bytes * entry array * bytes) Hashtbl.t = Hashtbl.create 16

let sign_stats = Grt_util.Memo_stats.register "recording.sign"

let sign ?(chunk_entries = default_chunk_entries) ~key t =
  if chunk_entries <= 0 then invalid_arg "Recording.sign: chunk_entries must be positive";
  let meta_buf = Byte_buf.create ~capacity:256 () in
  Byte_buf.add_varint meta_buf chunk_entries;
  Byte_buf.add_string meta_buf key;
  Byte_buf.add_string meta_buf t.workload;
  Byte_buf.add_i64 meta_buf t.gpu_id;
  Byte_buf.add_varint meta_buf (List.length t.slots);
  List.iter (add_slot meta_buf) t.slots;
  let meta = Byte_buf.contents meta_buf in
  let memo_key = Array.fold_left entry_key (Grt_util.Hashing.quick meta) t.entries in
  match Hashtbl.find_opt sign_memo memo_key with
  | Some (m, es, blob) when Bytes.equal m meta && entries_eq es t.entries ->
    Grt_util.Memo_stats.hit sign_stats;
    Bytes.copy blob
  | prior ->
    Grt_util.Memo_stats.miss sign_stats;
    (match prior with
    | Some _ -> Grt_util.Memo_stats.mismatch sign_stats
    | None -> ());
    let body, bounds = chunk_bounds ~chunk_entries t.entries in
    let n = Array.length t.entries in
    let n_chunks = Array.length bounds - 1 in
    let hashes =
      Array.init n_chunks (fun i ->
          Grt_util.Hashing.fnv1a_sub body ~pos:bounds.(i) ~len:(bounds.(i + 1) - bounds.(i)))
    in
    let header = Byte_buf.create ~capacity:4096 () in
    Byte_buf.add_u32 header magic;
    Byte_buf.add_u16 header version_chunked;
    Byte_buf.add_string header t.workload;
    Byte_buf.add_i64 header t.gpu_id;
    Byte_buf.add_varint header (List.length t.slots);
    List.iter (add_slot header) t.slots;
    Byte_buf.add_varint header n;
    Byte_buf.add_varint header n_chunks;
    Array.iteri
      (fun i h ->
        Byte_buf.add_varint header (min chunk_entries (n - (i * chunk_entries)));
        Byte_buf.add_varint header (bounds.(i + 1) - bounds.(i));
        Byte_buf.add_i64 header h)
      hashes;
    Byte_buf.add_i64 header (merkle_root (Array.to_list hashes));
    let hdr = Byte_buf.contents header in
    let blob = Byte_buf.create ~capacity:(Bytes.length hdr + 8 + Bytes.length body) () in
    Byte_buf.add_bytes blob hdr;
    Byte_buf.add_i64 blob (Grt_tee.Crypto.mac ~key hdr);
    Byte_buf.add_bytes blob body;
    let blob = Byte_buf.contents blob in
    (* Resident footprint: meta + blob copies (the entry-spine snapshot is
       shared page bytes, not counted). *)
    let footprint = Bytes.length meta + Bytes.length blob in
    if Hashtbl.length sign_memo >= memo_cap then begin
      Grt_util.Memo_stats.evicted sign_stats ~entries:(Hashtbl.length sign_memo);
      Hashtbl.reset sign_memo
    end;
    (match (Hashtbl.mem sign_memo memo_key, prior) with
    | false, _ -> Grt_util.Memo_stats.added sign_stats ~bytes:footprint
    | true, Some (m, _, b) ->
      Grt_util.Memo_stats.replaced sign_stats
        ~old_bytes:(Bytes.length m + Bytes.length b)
        ~bytes:footprint
    | true, None -> ());
    Hashtbl.replace sign_memo memo_key (meta, Array.map entry_copy t.entries, Bytes.copy blob);
    blob

let parse_chunk_entries chunk =
  let r = Byte_buf.Reader.of_bytes chunk.chunk_raw in
  let entries = Array.init chunk.chunk_count (fun _ -> read_entry r) in
  if Byte_buf.Reader.remaining r <> 0 then failwith "recording: trailing bytes in chunk";
  entries

(* Parse + verify the MACed part of either blob format. For v1 that is the
   whole blob (entry bodies included); for v2 only the header — chunk
   bodies are parsed, and their lengths checked, but their hashes are the
   caller's to verify (eagerly in [verify_and_parse], streamingly in the
   replay compiler). *)
let parse_signed ~key blob =
  try
    let n = Bytes.length blob in
    if n < 14 then Error "recording: truncated"
    else begin
      let r = Byte_buf.Reader.of_bytes blob in
      if Byte_buf.Reader.u32 r <> magic then Error "recording: bad magic"
      else begin
        match Byte_buf.Reader.u16 r with
        | 1 ->
          if n < 8 then Error "recording: truncated"
          else begin
            let body = Bytes.sub blob 0 (n - 8) in
            let tag = Bytes.get_int64_le blob (n - 8) in
            if not (Grt_tee.Crypto.verify ~key body tag) then
              Error "recording: signature verification failed"
            else
              match deserialize body with
              | Error e -> Error e
              | Ok rec_t ->
                Ok
                  {
                    vrec = rec_t;
                    vversion = 1;
                    vchunks = [||];
                    vroot = Grt_util.Hashing.fnv1a_bytes (entries_bytes rec_t.entries);
                  }
          end
        | 2 ->
          let workload = Byte_buf.Reader.string r in
          let gpu_id = Byte_buf.Reader.i64 r in
          let n_slots = Byte_buf.Reader.varint r in
          let slots = List.init n_slots (fun _ -> read_slot r) in
          let total_entries = Byte_buf.Reader.varint r in
          let n_chunks = Byte_buf.Reader.varint r in
          let metas =
            Array.init n_chunks (fun _ ->
                let count = Byte_buf.Reader.varint r in
                let len = Byte_buf.Reader.varint r in
                let hash = Byte_buf.Reader.i64 r in
                (count, len, hash))
          in
          let root = Byte_buf.Reader.i64 r in
          let header_len = Byte_buf.Reader.pos r in
          let tag = Byte_buf.Reader.i64 r in
          if not (Grt_tee.Crypto.verify ~key (Bytes.sub blob 0 header_len) tag) then
            Error "recording: signature verification failed"
          else if
            not (Int64.equal root (merkle_root (Array.to_list (Array.map (fun (_, _, h) -> h) metas))))
          then Error "recording: Merkle root does not cover the chunk hashes"
          else begin
            let first = ref 0 in
            let chunks =
              Array.map
                (fun (count, len, hash) ->
                  let raw = Byte_buf.Reader.bytes r len in
                  let c = { chunk_first = !first; chunk_count = count; chunk_hash = hash; chunk_raw = raw } in
                  first := !first + count;
                  c)
                metas
            in
            if Byte_buf.Reader.remaining r <> 0 then Error "recording: trailing bytes after chunks"
            else if !first <> total_entries then Error "recording: chunk entry counts disagree with header"
            else
              let entries = Array.concat (Array.to_list (Array.map parse_chunk_entries chunks)) in
              Ok { vrec = { workload; gpu_id; entries; slots }; vversion = 2; vchunks = chunks; vroot = root }
          end
        | v -> Error (Printf.sprintf "recording: unsupported version %d" v)
      end
    end
  with Failure msg -> Error msg

let verify_chunk c =
  Int64.equal (Grt_util.Hashing.fnv1a_bytes c.chunk_raw) c.chunk_hash

let verify_memo : (int, bytes * string * (t, string) result) Hashtbl.t = Hashtbl.create 16

let verify_stats = Grt_util.Memo_stats.register "recording.verify"

let verify_and_parse_raw ~key blob =
  match parse_signed ~key blob with
  | Error e -> Error e
  | Ok v ->
    let bad = ref None in
    Array.iter
      (fun c -> if !bad = None && not (verify_chunk c) then bad := Some c.chunk_first)
      v.vchunks;
    (match !bad with
    | Some first -> Error (Printf.sprintf "recording: chunk at entry %d failed verification" first)
    | None -> Ok v.vrec)

(* Memoized verification (see the note above [sign]): the verdict on a
   byte-identical blob under the same key is deterministic, so a repeat
   verify returns the cached parse. The entry array's spine is copied on a
   hit — callers are free to patch entries of a parsed recording (the
   tamper-detection tests do) without poisoning the cache. *)
let verify_and_parse ~key blob =
  let memo_key = Grt_util.Hashing.quick_sparse ~seed:(Hashtbl.hash key) blob in
  match Hashtbl.find_opt verify_memo memo_key with
  | Some (b, k, res) when String.equal k key && Bytes.equal b blob -> (
    Grt_util.Memo_stats.hit verify_stats;
    match res with
    | Ok r -> Ok { r with entries = Array.copy r.entries }
    | Error _ as e -> e)
  | prior ->
    Grt_util.Memo_stats.miss verify_stats;
    (match prior with
    | Some _ -> Grt_util.Memo_stats.mismatch verify_stats
    | None -> ());
    let res = verify_and_parse_raw ~key blob in
    let footprint = Bytes.length blob + String.length key in
    if Hashtbl.length verify_memo >= memo_cap then begin
      Grt_util.Memo_stats.evicted verify_stats ~entries:(Hashtbl.length verify_memo);
      Hashtbl.reset verify_memo
    end;
    (match (Hashtbl.mem verify_memo memo_key, prior) with
    | false, _ -> Grt_util.Memo_stats.added verify_stats ~bytes:footprint
    | true, Some (b, k, _) ->
      Grt_util.Memo_stats.replaced verify_stats
        ~old_bytes:(Bytes.length b + String.length k)
        ~bytes:footprint
    | true, None -> ());
    Hashtbl.replace verify_memo memo_key (Bytes.copy blob, key, res);
    (match res with
    | Ok r -> Ok { r with entries = Array.copy r.entries }
    | Error _ as e -> e)

let size_bytes t = Bytes.length (serialize t)

let count_entries t what =
  Array.fold_left
    (fun acc e ->
      match (what, e) with
      | `Writes, Reg_write _ -> acc + 1
      | `Reads, Reg_read _ -> acc + 1
      | `Polls, Poll _ -> acc + 1
      | `Irqs, Wait_irq _ -> acc + 1
      | `Mem_pages, Mem_load { pages } -> acc + List.length pages
      | `Mem_pages, Mem_load_enc { records } -> acc + List.length records
      | _ -> acc)
    0 t.entries
