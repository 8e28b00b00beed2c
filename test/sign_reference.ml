(* Retained reference implementation of [Recording.sign]: the growing-
   buffer signer as it was before signing sized the blob from the entries
   and serialized the body once, in place. It grows a 4 KB body buffer,
   takes its contents, then copies header, MAC and body into a second
   buffer. The property suite in test_core runs random entry logs through
   both and demands identical bytes, so the blob format stays pinned
   independently of the goldens. *)

module Byte_buf = Grt_util.Byte_buf
module Recording = Grt.Recording
module Memsync = Grt.Memsync
module Regs = Grt_gpu.Regs
module Device = Grt_gpu.Device

let magic = 0x47525452
let version = 2

let kind_to_int = function `Input -> 0 | `Output -> 1 | `Param -> 2

let add_entry buf = function
  | Recording.Reg_write { reg; value } ->
    Byte_buf.add_u8 buf 1;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf value
  | Recording.Reg_read { reg; value; verify } ->
    Byte_buf.add_u8 buf 2;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf value;
    Byte_buf.add_u8 buf (if verify then 1 else 0)
  | Recording.Poll { reg; mask; cond; max_iters; spin_ns } ->
    Byte_buf.add_u8 buf 3;
    Byte_buf.add_u32 buf reg;
    Byte_buf.add_i64 buf mask;
    Byte_buf.add_u8 buf (match cond with Regs.Bits_set -> 1 | Regs.Bits_clear -> 0);
    Byte_buf.add_varint buf max_iters;
    Byte_buf.add_i64 buf spin_ns
  | Recording.Wait_irq { line } ->
    Byte_buf.add_u8 buf 4;
    Byte_buf.add_u8 buf
      (match line with Device.Job_irq -> 0 | Device.Gpu_irq -> 1 | Device.Mmu_irq -> 2)
  | Recording.Mem_load { Memsync.tagged = false; records } ->
    Byte_buf.add_u8 buf 5;
    Byte_buf.add_varint buf (List.length records);
    List.iter
      (fun (pfn, _, data) ->
        Byte_buf.add_i64 buf pfn;
        Byte_buf.add_varint buf (Bytes.length data);
        Byte_buf.add_bytes buf data)
      records
  | Recording.Mem_load { Memsync.tagged = true; records } ->
    Byte_buf.add_u8 buf 6;
    Byte_buf.add_varint buf (List.length records);
    List.iter
      (fun (pfn, enc, body) ->
        Byte_buf.add_varint buf (Int64.to_int pfn);
        Byte_buf.add_u8 buf (Memsync.encoding_to_int enc);
        Byte_buf.add_varint buf (Bytes.length body);
        Byte_buf.add_bytes buf body)
      records

let add_slot buf (s : Recording.slot) =
  Byte_buf.add_string buf s.Recording.slot_name;
  Byte_buf.add_u8 buf (kind_to_int s.Recording.kind);
  Byte_buf.add_i64 buf s.Recording.va;
  Byte_buf.add_i64 buf s.Recording.pa;
  Byte_buf.add_varint buf s.Recording.actual_bytes;
  Byte_buf.add_varint buf s.Recording.model_bytes

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

let sign ?(chunk_entries = Recording.default_chunk_entries) ~key (t : Recording.t) =
  if chunk_entries <= 0 then invalid_arg "Recording.sign: chunk_entries must be positive";
  let body, bounds = chunk_bounds ~chunk_entries t.Recording.entries in
  let n = Array.length t.Recording.entries in
  let n_chunks = Array.length bounds - 1 in
  let hashes =
    Array.init n_chunks (fun i ->
        Grt_util.Hashing.fnv1a_sub body ~pos:bounds.(i) ~len:(bounds.(i + 1) - bounds.(i)))
  in
  let header = Byte_buf.create ~capacity:4096 () in
  Byte_buf.add_u32 header magic;
  Byte_buf.add_u16 header version;
  Byte_buf.add_string header t.Recording.workload;
  Byte_buf.add_i64 header t.Recording.gpu_id;
  Byte_buf.add_varint header (List.length t.Recording.slots);
  List.iter (add_slot header) t.Recording.slots;
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
  Byte_buf.contents blob

(* The verdict-only check as it was before it stepped over the slot table:
   every slot is decoded with the reader and dropped, the chunk metas are
   read into a list, and the checks run in the same order with the same
   messages. The property suite in test_core holds [Recording.verify] to
   it on mutated blobs. *)
module Reader = Byte_buf.Reader

let read_count r ~min_bytes what =
  let n = Reader.varint r in
  if n > Reader.remaining r / min_bytes then
    failwith (Printf.sprintf "recording: %s count %d exceeds the blob" what n);
  n

let read_slot r =
  let name = Reader.string r in
  if Reader.u8 r > 2 then failwith "recording: bad slot kind";
  let va = Reader.i64 r in
  let pa = Reader.i64 r in
  let actual = Reader.varint r in
  let model = Reader.varint r in
  (name, va, pa, actual, model)

let verify ~key blob =
  try
    let r = Reader.of_bytes blob in
    if Reader.u32 r <> magic then failwith "recording: bad magic";
    let v = Reader.u16 r in
    if v <> version then failwith (Printf.sprintf "recording: unsupported version %d" v);
    ignore (Reader.string r);
    ignore (Reader.i64 r);
    let n_slots = read_count r ~min_bytes:20 "slot" in
    ignore (List.init n_slots (fun _ -> read_slot r));
    let total_entries = Reader.varint r in
    let n_chunks = read_count r ~min_bytes:10 "chunk" in
    let metas =
      List.init n_chunks (fun _ ->
          let count = Reader.varint r in
          let len = Reader.varint r in
          (count, len, Reader.i64 r))
    in
    let root = Reader.i64 r in
    let header_len = Reader.pos r in
    let tag = Reader.i64 r in
    if not (Int64.equal (Grt_tee.Crypto.mac ~key (Bytes.sub blob 0 header_len)) tag) then
      failwith "recording: signature verification failed";
    if not (Int64.equal root (merkle_root (List.map (fun (_, _, h) -> h) metas))) then
      failwith "recording: Merkle root does not cover the chunk hashes";
    let body_len =
      List.fold_left
        (fun acc (_, len, _) -> if len > Bytes.length blob - acc then Bytes.length blob else acc + len)
        0 metas
    in
    if body_len > Reader.remaining r then failwith "recording: truncated chunk bodies";
    if body_len < Reader.remaining r then failwith "recording: trailing bytes after chunks";
    let entries_ok, entries =
      List.fold_left
        (fun (ok, n) (count, _, _) -> if count > total_entries - n then (false, n) else (ok, n + count))
        (true, 0) metas
    in
    if not (entries_ok && entries = total_entries) then
      failwith "recording: chunk entry counts disagree with header";
    ignore
      (List.fold_left
         (fun (first, at) (count, len, h) ->
           if not (Int64.equal (Grt_util.Hashing.fnv1a_sub blob ~pos:at ~len) h) then
             failwith (Printf.sprintf "recording: chunk at entry %d failed verification" first);
           (first + count, at + len))
         (0, Reader.pos r) metas);
    Ok ()
  with Failure msg -> Error msg
