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
