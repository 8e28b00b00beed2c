type params = {
  in_c : int;
  in_h : int;
  in_w : int;
  in2_c : int;
  out_c : int;
  out_h : int;
  out_w : int;
  kh : int;
  kw : int;
  stride : int;
  pad : int;
  relu : bool;
  part_idx : int;
  part_count : int;
  flops_hint : int64;
}

let default_params =
  {
    in_c = 0;
    in_h = 0;
    in_w = 0;
    in2_c = 0;
    out_c = 0;
    out_h = 0;
    out_w = 0;
    kh = 0;
    kw = 0;
    stride = 1;
    pad = 0;
    relu = false;
    part_idx = 0;
    part_count = 1;
    flops_hint = 0L;
  }

type t = {
  op : Shader.op;
  shader_va : int64;
  input_va : int64;
  input2_va : int64;
  bias_va : int64;
  output_va : int64;
  params : params;
  next_va : int64;
}

let magic = 0x47524A44L (* "GRJD" *)

let size_bytes = 128
let status_offset = 120

type status = Pending | Done | Fault of int

let status_to_int = function Pending -> 0 | Done -> 1 | Fault code -> 0x40 lor (code land 0x3F)

let status_of_int = function
  | 0 -> Pending
  | 1 -> Done
  | v -> Fault (v land 0x3F)

let u32 = Int64.of_int

let write mem ~pa t =
  let p = t.params in
  Mem.write_u32 mem pa magic;
  Mem.write_u32 mem (Int64.add pa 4L) (u32 (Shader.op_code t.op));
  Mem.write_u64 mem (Int64.add pa 8L) t.shader_va;
  Mem.write_u64 mem (Int64.add pa 16L) t.input_va;
  Mem.write_u64 mem (Int64.add pa 24L) t.input2_va;
  Mem.write_u64 mem (Int64.add pa 32L) t.bias_va;
  Mem.write_u64 mem (Int64.add pa 40L) t.output_va;
  let params_base = Int64.add pa 48L in
  let fields =
    [|
      p.in_c; p.in_h; p.in_w; p.in2_c; p.out_c; p.out_h; p.out_w; p.kh; p.kw; p.stride; p.pad;
      (if p.relu then 1 else 0); p.part_idx; p.part_count;
    |]
  in
  Array.iteri (fun i v -> Mem.write_u32 mem (Int64.add params_base (u32 (4 * i))) (u32 v)) fields;
  Mem.write_u64 mem (Int64.add pa 104L) p.flops_hint;
  Mem.write_u64 mem (Int64.add pa 112L) t.next_va;
  Mem.write_u32 mem (Int64.add pa (u32 status_offset)) (u32 (status_to_int Pending))

let[@inline] u32_at b i = Int32.to_int (Bytes.get_int32_le b i) land 0xFFFF_FFFF

(* Decode the descriptor at offset [o] of [b], which holds all its
   [size_bytes]. *)
let decode b o =
  if u32_at b o <> Int64.to_int magic then Error "job descriptor: bad magic"
  else
    match Shader.op_of_code (u32_at b (o + 4)) with
    | None -> Error "job descriptor: unknown opcode"
    | Some op ->
      let params =
        {
          in_c = u32_at b (o + 48);
          in_h = u32_at b (o + 52);
          in_w = u32_at b (o + 56);
          in2_c = u32_at b (o + 60);
          out_c = u32_at b (o + 64);
          out_h = u32_at b (o + 68);
          out_w = u32_at b (o + 72);
          kh = u32_at b (o + 76);
          kw = u32_at b (o + 80);
          stride = u32_at b (o + 84);
          pad = u32_at b (o + 88);
          relu = u32_at b (o + 92) <> 0;
          part_idx = u32_at b (o + 96);
          part_count = u32_at b (o + 100);
          flops_hint = Bytes.get_int64_le b (o + 104);
        }
      in
      Ok
        {
          op;
          shader_va = Bytes.get_int64_le b (o + 8);
          input_va = Bytes.get_int64_le b (o + 16);
          input2_va = Bytes.get_int64_le b (o + 24);
          bias_va = Bytes.get_int64_le b (o + 32);
          output_va = Bytes.get_int64_le b (o + 40);
          params;
          next_va = Bytes.get_int64_le b (o + 112);
        }

(* A descriptor inside one materialized page decodes in place; one that
   straddles pages, or sits on a page never written (all zeros: bad
   magic), decodes from a copy. *)
let read mem ~pa =
  let o = Int64.to_int (Int64.logand pa 0xFFFL) in
  let p = Mem.borrow_ro mem (Mem.page_index pa) in
  if o + size_bytes <= Mem.page_size && p != Bytes.empty then decode p o
  else decode (Mem.read_bytes mem pa size_bytes) 0

let read_status mem ~pa =
  status_of_int (Int64.to_int (Mem.read_u32 mem (Int64.add pa (u32 status_offset))))

let write_status mem ~pa s =
  Mem.write_u32 mem (Int64.add pa (u32 status_offset)) (u32 (status_to_int s))
