type op =
  | Copy
  | Relu
  | Add
  | Concat2
  | Softmax
  | Maxpool
  | Avgpool
  | Conv2d
  | Depthwise
  | Fc
  | Tanh
  | Sigmoid
  | Mul

let op_code = function
  | Copy -> 1
  | Relu -> 2
  | Add -> 3
  | Concat2 -> 4
  | Softmax -> 5
  | Maxpool -> 6
  | Avgpool -> 7
  | Conv2d -> 8
  | Depthwise -> 9
  | Fc -> 10
  | Tanh -> 11
  | Sigmoid -> 12
  | Mul -> 13

let op_of_code = function
  | 1 -> Some Copy
  | 2 -> Some Relu
  | 3 -> Some Add
  | 4 -> Some Concat2
  | 5 -> Some Softmax
  | 6 -> Some Maxpool
  | 7 -> Some Avgpool
  | 8 -> Some Conv2d
  | 9 -> Some Depthwise
  | 10 -> Some Fc
  | 11 -> Some Tanh
  | 12 -> Some Sigmoid
  | 13 -> Some Mul
  | _ -> None

let op_name = function
  | Copy -> "copy"
  | Relu -> "relu"
  | Add -> "add"
  | Concat2 -> "concat2"
  | Softmax -> "softmax"
  | Maxpool -> "maxpool"
  | Avgpool -> "avgpool"
  | Conv2d -> "conv2d"
  | Depthwise -> "depthwise"
  | Fc -> "fc"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Mul -> "mul"

let magic = 0x47525348L (* "GRSH" *)

let header_size = 32

let tile_size sku =
  (* One quad per core pair; mirrors how real compilers scale work-group
     shape with the core count. *)
  let t = 4 * sku.Sku.shader_cores in
  max 8 (min 64 t)

let code_complexity = function
  | Copy | Relu -> 48
  | Add | Concat2 | Mul -> 64
  | Tanh | Sigmoid -> 96
  | Softmax -> 160
  | Maxpool | Avgpool -> 128
  | Depthwise -> 384
  | Fc -> 448
  | Conv2d -> 640

let size_bytes op ~sku =
  (* Bigger tiles unroll more; code grows with log2(tile). *)
  let tile = tile_size sku in
  let unroll = int_of_float (log (float_of_int tile) /. log 2.) in
  header_size + (code_complexity op * unroll / 3)

let compile ~sku ~op =
  let total = size_bytes op ~sku in
  let buf = Grt_util.Byte_buf.create ~capacity:total () in
  Grt_util.Byte_buf.add_u32 buf (Int64.to_int magic);
  Grt_util.Byte_buf.add_u32 buf 1;
  (* version *)
  Grt_util.Byte_buf.add_i64 buf sku.Sku.gpu_id;
  Grt_util.Byte_buf.add_u32 buf (op_code op);
  Grt_util.Byte_buf.add_u32 buf (tile_size sku);
  Grt_util.Byte_buf.add_u32 buf (total - header_size);
  Grt_util.Byte_buf.add_u32 buf 0;
  (* pad to header_size *)
  (* Synthetic instruction stream: deterministic bytes derived from the op
     and SKU so that identical compilations are byte-identical (and thus
     delta-sync to nothing on repeated jobs). *)
  let seed =
    Grt_util.Hashing.combine sku.Sku.gpu_id (Int64.of_int (op_code op))
  in
  let rng = Grt_util.Rng.create ~seed in
  for _ = 1 to total - header_size do
    Grt_util.Byte_buf.add_u8 buf (Grt_util.Rng.int rng 256)
  done;
  Grt_util.Byte_buf.contents buf

type header = { version : int; gpu_id : int64; op : op; tile : int; code_len : int }

let parse_header b =
  if Bytes.length b < header_size then Error "shader: too short"
  else
    let r = Grt_util.Byte_buf.Reader.of_bytes b in
    let m = Grt_util.Byte_buf.Reader.u32 r in
    if Int64.of_int m <> magic then Error "shader: bad magic"
    else
      let version = Grt_util.Byte_buf.Reader.u32 r in
      let gpu_id = Grt_util.Byte_buf.Reader.i64 r in
      let code = Grt_util.Byte_buf.Reader.u32 r in
      let tile = Grt_util.Byte_buf.Reader.u32 r in
      let code_len = Grt_util.Byte_buf.Reader.u32 r in
      match op_of_code code with
      | None -> Error "shader: unknown opcode"
      | Some op -> Ok { version; gpu_id; op; tile; code_len }

(* The fields [parse_header] checks, read in place: magic, GPU id and op
   code, as little-endian at [off] of [b]. *)
let header_matches b off ~gpu_id ~op =
  off >= 0
  && off + header_size <= Bytes.length b
  && Int32.to_int (Bytes.get_int32_le b off) land 0xFFFF_FFFF = Int64.to_int magic
  && Int64.equal (Bytes.get_int64_le b (off + 8)) gpu_id
  && Int32.to_int (Bytes.get_int32_le b (off + 16)) land 0xFFFF_FFFF = op_code op
