module Byte_buf = Grt_util.Byte_buf
module Device = Grt_gpu.Device
module Regs = Grt_gpu.Regs

type entry =
  | Reg_write of { reg : int; value : int64 }
  | Reg_read of { reg : int; value : int64; verify : bool }
  | Poll of { reg : int; mask : int64; cond : Regs.poll_cond; max_iters : int; spin_ns : int64 }
  | Wait_irq of { line : Device.irq_line }
  | Mem_load of Memsync.logged

let irq_line_code = function Device.Job_irq -> 0 | Device.Gpu_irq -> 1 | Device.Mmu_irq -> 2

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
let version = 2

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
    Byte_buf.add_u8 buf (match cond with Regs.Bits_set -> 1 | Regs.Bits_clear -> 0);
    Byte_buf.add_varint buf max_iters;
    Byte_buf.add_i64 buf spin_ns
  | Wait_irq { line } ->
    Byte_buf.add_u8 buf 4;
    Byte_buf.add_u8 buf (irq_line_code line)
  | Mem_load { Memsync.tagged = false; records } ->
    (* untagged records are raw: the body is the full page *)
    Byte_buf.add_u8 buf 5;
    Byte_buf.add_varint buf (List.length records);
    List.iter
      (fun (pfn, _, data) ->
        Byte_buf.add_i64 buf pfn;
        Byte_buf.add_varint buf (Bytes.length data);
        Byte_buf.add_bytes buf data)
      records
  | Mem_load { Memsync.tagged = true; records } ->
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

(* Every one-byte field decodes strictly: a value [sign] never writes is a
   malformed blob, rejected here where the blob is being validated rather
   than read as some default or left to surface at replay time. *)
let read_flag r what =
  match Byte_buf.Reader.u8 r with
  | 0 -> false
  | 1 -> true
  | b -> failwith (Printf.sprintf "recording: invalid %s byte %d" what b)

let read_entry r =
  match Byte_buf.Reader.u8 r with
  | 1 ->
    let reg = Byte_buf.Reader.u32 r in
    let value = Byte_buf.Reader.i64 r in
    Reg_write { reg; value }
  | 2 ->
    let reg = Byte_buf.Reader.u32 r in
    let value = Byte_buf.Reader.i64 r in
    let verify = read_flag r "verify" in
    Reg_read { reg; value; verify }
  | 3 ->
    let reg = Byte_buf.Reader.u32 r in
    let mask = Byte_buf.Reader.i64 r in
    let cond = if read_flag r "poll condition" then Regs.Bits_set else Regs.Bits_clear in
    let max_iters = Byte_buf.Reader.varint r in
    let spin_ns = Byte_buf.Reader.i64 r in
    Poll { reg; mask; cond; max_iters; spin_ns }
  | 4 ->
    let line =
      match Byte_buf.Reader.u8 r with
      | 0 -> Device.Job_irq
      | 1 -> Device.Gpu_irq
      | 2 -> Device.Mmu_irq
      | l -> failwith (Printf.sprintf "recording: invalid IRQ line %d" l)
    in
    Wait_irq { line }
  | 5 ->
    let n = Byte_buf.Reader.varint r in
    let records =
      List.init n (fun _ ->
          let pfn = Byte_buf.Reader.i64 r in
          let len = Byte_buf.Reader.varint r in
          (pfn, Memsync.Enc_raw, Byte_buf.Reader.bytes r len))
    in
    Mem_load { Memsync.tagged = false; records }
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
    Mem_load { Memsync.tagged = true; records }
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

(* ---- wire format (version 2) ----

   The blob splits the entry log into chunks so verification can stream:

     header  := magic ∥ u16 2 ∥ workload ∥ gpu_id ∥ slots
                ∥ varint total_entries ∥ varint n_chunks
                ∥ n_chunks × (varint entry_count ∥ varint byte_len ∥ i64 hash)
                ∥ i64 merkle_root
     blob    := header ∥ i64 mac(header) ∥ chunk bodies

   Only the header is MACed; each chunk body is covered by its signed FNV
   hash, and the Merkle root over the chunk hashes names the whole entry
   log for attestation. A replayer may therefore verify the header once and
   check each chunk hash just before executing that chunk (streaming), while
   [verify] and [verify_and_parse] check everything up front. *)

type chunk = {
  chunk_first : int;
  chunk_count : int;
  chunk_hash : int64;
  chunk_raw : bytes;
}

type verified = {
  vrec : t;
  vchunks : chunk array;
  vroot : int64;
}

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

(* The exact number of bytes [add_entry] writes for [e]. *)
let entry_size = function
  | Reg_write _ -> 13
  | Reg_read _ -> 14
  | Poll { max_iters; _ } -> 22 + Byte_buf.varint_size max_iters
  | Wait_irq _ -> 2
  | Mem_load { Memsync.tagged; records } ->
    List.fold_left
      (fun acc (pfn, _, data) ->
        let len = Bytes.length data in
        let framing =
          if tagged then Byte_buf.varint_size (Int64.to_int pfn) + 1 else 8
        in
        acc + framing + Byte_buf.varint_size len + len)
      (1 + Byte_buf.varint_size (List.length records))
      records

(* One pass, one buffer. The chunk byte lengths come from [entry_size], so
   the header's length is known before anything is written: the blob is
   allocated at its final size, the header goes in with zeroed chunk
   hashes, Merkle root and MAC, and the body is serialized once straight
   behind it. Then each chunk is hashed in place and the fixed-width
   fields are patched. *)
let sign ?(chunk_entries = default_chunk_entries) ~key t =
  if chunk_entries <= 0 then invalid_arg "Recording.sign: chunk_entries must be positive";
  let n = Array.length t.entries in
  let n_chunks = (n + chunk_entries - 1) / chunk_entries in
  let chunk_len = Array.make n_chunks 0 in
  Array.iteri
    (fun i e ->
      let c = i / chunk_entries in
      chunk_len.(c) <- chunk_len.(c) + entry_size e)
    t.entries;
  let chunk_count c = min chunk_entries (n - (c * chunk_entries)) in
  let prefix = Byte_buf.create ~capacity:256 () in
  Byte_buf.add_u32 prefix magic;
  Byte_buf.add_u16 prefix version;
  Byte_buf.add_string prefix t.workload;
  Byte_buf.add_i64 prefix t.gpu_id;
  Byte_buf.add_varint prefix (List.length t.slots);
  List.iter (add_slot prefix) t.slots;
  Byte_buf.add_varint prefix n;
  Byte_buf.add_varint prefix n_chunks;
  let header_len = ref (Byte_buf.length prefix + 8) and body_len = ref 0 in
  Array.iteri
    (fun c len ->
      header_len :=
        !header_len + Byte_buf.varint_size (chunk_count c) + Byte_buf.varint_size len + 8;
      body_len := !body_len + len)
    chunk_len;
  let header_len = !header_len in
  let buf = Byte_buf.create ~capacity:(header_len + 8 + !body_len) () in
  Byte_buf.add_bytes buf (Byte_buf.contents prefix);
  let hash_at =
    Array.mapi
      (fun c len ->
        Byte_buf.add_varint buf (chunk_count c);
        Byte_buf.add_varint buf len;
        let at = Byte_buf.length buf in
        Byte_buf.add_i64 buf 0L;
        at)
      chunk_len
  in
  Byte_buf.add_i64 buf 0L (* Merkle root *);
  Byte_buf.add_i64 buf 0L (* MAC *);
  Array.iter (add_entry buf) t.entries;
  let blob = Byte_buf.release buf in
  if Bytes.length blob <> header_len + 8 + !body_len then
    failwith "Recording.sign: entry sizes disagree with the serialized body";
  let pos = ref (header_len + 8) in
  let hashes =
    Array.mapi
      (fun c len ->
        let h = Grt_util.Hashing.fnv1a_sub blob ~pos:!pos ~len in
        Bytes.set_int64_le blob hash_at.(c) h;
        pos := !pos + len;
        h)
      chunk_len
  in
  Bytes.set_int64_le blob (header_len - 8) (merkle_root (Array.to_list hashes));
  Bytes.set_int64_le blob header_len (Grt_tee.Crypto.mac ~key (Bytes.sub blob 0 header_len));
  blob

(* The signed header, decoded and checked: MAC, Merkle root, and that the
   chunk metas tile the rest of the blob exactly and sum to the declared
   entry total. [h_body] is the offset of the first chunk body. *)
type header = {
  h_workload : string;
  h_gpu_id : int64;
  h_slots : slot list;
  h_metas : (int * int * int64) array;  (** (entry count, byte length, hash) per chunk *)
  h_root : int64;
  h_body : int;
}

(* A declared element count is read before the MAC can vouch for it, so it
   is capped by the bytes left over the element's minimum encoding before
   anything is allocated for it. A slot is at least an empty name, a kind
   byte, two i64s and two one-byte varints; a chunk meta two one-byte
   varints and an i64. *)
let read_count r ~min_bytes what =
  let n = Byte_buf.Reader.varint r in
  if n > Byte_buf.Reader.remaining r / min_bytes then
    failwith (Printf.sprintf "recording: %s count %d exceeds the blob" what n);
  n

(* Raises [Failure] on any malformed or unauthenticated header. *)
let parse_header ~key blob =
  let r = Byte_buf.Reader.of_bytes blob in
  if Byte_buf.Reader.u32 r <> magic then failwith "recording: bad magic";
  let v = Byte_buf.Reader.u16 r in
  if v <> version then failwith (Printf.sprintf "recording: unsupported version %d" v);
  let workload = Byte_buf.Reader.string r in
  let gpu_id = Byte_buf.Reader.i64 r in
  let n_slots = read_count r ~min_bytes:20 "slot" in
  let slots = List.init n_slots (fun _ -> read_slot r) in
  let total_entries = Byte_buf.Reader.varint r in
  let n_chunks = read_count r ~min_bytes:10 "chunk" in
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
    failwith "recording: signature verification failed";
  if not (Int64.equal root (merkle_root (Array.to_list (Array.map (fun (_, _, h) -> h) metas))))
  then failwith "recording: Merkle root does not cover the chunk hashes";
  (* Compared by subtraction so that no sum of declared sizes can wrap. *)
  let body_left =
    Array.fold_left
      (fun left (_, len, _) ->
        if len > left then failwith "recording: truncated chunk bodies";
        left - len)
      (Byte_buf.Reader.remaining r) metas
  in
  if body_left <> 0 then failwith "recording: trailing bytes after chunks";
  let entries_left =
    Array.fold_left
      (fun left (count, _, _) -> if count > left then -1 else left - count)
      total_entries metas
  in
  if entries_left <> 0 then failwith "recording: chunk entry counts disagree with header";
  {
    h_workload = workload;
    h_gpu_id = gpu_id;
    h_slots = slots;
    h_metas = metas;
    h_root = root;
    h_body = Byte_buf.Reader.pos r;
  }

let parse_chunk_entries chunk =
  let r = Byte_buf.Reader.of_bytes chunk.chunk_raw in
  let entries = Array.init chunk.chunk_count (fun _ -> read_entry r) in
  if Byte_buf.Reader.remaining r <> 0 then failwith "recording: trailing bytes in chunk";
  entries

(* Header verified, chunk bodies sliced and parsed; their hashes are the
   caller's to verify (eagerly in [verify_and_parse], streamingly in the
   replay compiler). *)
let parse_signed ~key blob =
  try
    let h = parse_header ~key blob in
    let pos = ref h.h_body and first = ref 0 in
    let chunks =
      Array.map
        (fun (count, len, hash) ->
          let c =
            { chunk_first = !first; chunk_count = count; chunk_hash = hash; chunk_raw = Bytes.sub blob !pos len }
          in
          pos := !pos + len;
          first := !first + count;
          c)
        h.h_metas
    in
    let entries = Array.concat (Array.to_list (Array.map parse_chunk_entries chunks)) in
    Ok
      {
        vrec = { workload = h.h_workload; gpu_id = h.h_gpu_id; entries; slots = h.h_slots };
        vchunks = chunks;
        vroot = h.h_root;
      }
  with Failure msg -> Error msg

let verify_chunk c =
  Int64.equal (Grt_util.Hashing.fnv1a_bytes c.chunk_raw) c.chunk_hash

let chunk_failed first = Printf.sprintf "recording: chunk at entry %d failed verification" first

let verify_and_parse ~key blob =
  match parse_signed ~key blob with
  | Error _ as e -> e
  | Ok v -> (
    match Array.find_opt (fun c -> not (verify_chunk c)) v.vchunks with
    | Some c -> Error (chunk_failed c.chunk_first)
    | None -> Ok v.vrec)

(* Header, then each chunk's hash over its byte range in place: no copies,
   no entry decoding. *)
let verify_raw ~key blob =
  try
    let h = parse_header ~key blob in
    let pos = ref h.h_body and first = ref 0 in
    Array.iter
      (fun (count, len, hash) ->
        if not (Int64.equal (Grt_util.Hashing.fnv1a_sub blob ~pos:!pos ~len) hash) then
          failwith (chunk_failed !first);
        pos := !pos + len;
        first := !first + count)
      h.h_metas;
    Ok ()
  with Failure msg -> Error msg

(* The verdict on a byte-identical blob under the same key is
   deterministic, and every client the recording service serves re-verifies
   the same few blobs, so a small content-keyed memo short-circuits the
   repeats. A hit is trusted only after comparing the stored blob in full,
   so a key collision cannot leak a wrong verdict. Only the verdict is kept:
   callers that need entries parse. A blob is copied in only on its second
   verification: the first one remembers just its memo key in [seen], so a
   solo recording, verified once, costs no copy and no residency. *)
let memo_cap = 32
let seen_cap = 1024

let verify_memo : (int, bytes * string * (unit, string) result) Hashtbl.t = Hashtbl.create 16
let seen : (int, unit) Hashtbl.t = Hashtbl.create 64

let verify_stats = Grt_util.Memo_stats.register "recording.verify"

let verify ~key blob =
  let memo_key = Grt_util.Hashing.quick_sparse ~seed:(Hashtbl.hash key) blob in
  match Hashtbl.find_opt verify_memo memo_key with
  | Some (b, k, res) when String.equal k key && Bytes.equal b blob ->
    Grt_util.Memo_stats.hit verify_stats;
    res
  | prior ->
    Grt_util.Memo_stats.miss verify_stats;
    (match prior with
    | Some _ -> Grt_util.Memo_stats.mismatch verify_stats
    | None -> ());
    let res = verify_raw ~key blob in
    if not (Hashtbl.mem seen memo_key) then begin
      if Hashtbl.length seen >= seen_cap then Hashtbl.reset seen;
      Hashtbl.replace seen memo_key ()
    end
    else begin
      Hashtbl.remove seen memo_key;
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
      Hashtbl.replace verify_memo memo_key (Bytes.copy blob, key, res)
    end;
    res

(* A blob the recording service keeps for re-serving, plus the verdict
   its first full check gave under a key. A re-serve under that key reads
   the verdict: no hashing, no compare. The verdict is safe to keep only
   while nobody can change the bytes it vouches for: a private copy, or
   bytes the caller lends and keeps unchanged until [own] copies them. *)
type resident = {
  mutable rblob : string;
  mutable lent : bool;  (* [rblob] is still the caller's bytes *)
  mutable verdict : (Grt_tee.Crypto.key * (unit, string) result) option;
}

let resident_lent blob = { rblob = Bytes.unsafe_to_string blob; lent = true; verdict = None }

let own r =
  if r.lent then begin
    r.rblob <- Bytes.to_string (Bytes.unsafe_of_string r.rblob);
    r.lent <- false
  end

let resident_length r = String.length r.rblob

let verify_resident ~key r =
  match r.verdict with
  | Some (k, res) when String.equal k key ->
    Grt_util.Memo_stats.hit verify_stats;
    res
  | _ ->
    Grt_util.Memo_stats.miss verify_stats;
    (* [verify_raw] only reads the blob. *)
    let res = verify_raw ~key (Bytes.unsafe_of_string r.rblob) in
    r.verdict <- Some (key, res);
    res

let count_entries t what =
  Array.fold_left
    (fun acc e ->
      match (what, e) with
      | `Writes, Reg_write _ -> acc + 1
      | `Reads, Reg_read _ -> acc + 1
      | `Polls, Poll _ -> acc + 1
      | `Irqs, Wait_irq _ -> acc + 1
      | `Mem_pages, Mem_load { Memsync.records; _ } -> acc + List.length records
      | _ -> acc)
    0 t.entries
