(* Retained reference implementation of the compute kernels: [execute] and
   every operator exactly as they were before [Kernels.conv2d] staged its
   read set, with a [getf]/[setf] page check, bounds tests and index
   arithmetic per multiply-add. The differential and mock-memory suites in
   test_gpu run random jobs through both and demand identical output bytes,
   identical pages resolved and identical faults, so the kernels' numerics
   and memory behaviour stay pinned independently of the goldens. *)

open Grt_gpu.Kernels
module Job_desc = Grt_gpu.Job_desc
module Shader = Grt_gpu.Shader

external get32 : bytes -> int -> int32 = "%caml_bytes_get32"
external set32 : bytes -> int -> int32 -> unit = "%caml_bytes_set32"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32_le b i = if Sys.big_endian then swap32 (get32 b i) else get32 b i
let[@inline] set32_le b i v = set32 b i (if Sys.big_endian then swap32 v else v)

let[@inline] getf (s : stream) va =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  Int32.float_of_bits (get32_le p (va land 0xFFF))

let[@inline] setf (s : stream) va v =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  set32_le p (va land 0xFFF) (Int32.bits_of_float v)

let fail fmt = Printf.ksprintf (fun s -> raise (Kernel_fault s)) fmt

let partition_range ~total ~part_idx ~part_count =
  if part_count <= 0 || part_idx < 0 || part_idx >= part_count then
    fail "bad partition %d/%d" part_idx part_count;
  let q = total / part_count and r = total mod part_count in
  let first = (part_idx * q) + min part_idx r in
  let count = q + if part_idx < r then 1 else 0 in
  (first, count)

(* CHW indexing *)
let chw ~h ~w c y x = (((c * h) + y) * w) + x

let check_conv_geometry p =
  let open Job_desc in
  let expect_h = ((p.in_h + (2 * p.pad) - p.kh) / p.stride) + 1 in
  let expect_w = ((p.in_w + (2 * p.pad) - p.kw) / p.stride) + 1 in
  if expect_h <> p.out_h || expect_w <> p.out_w then
    fail "conv geometry mismatch: got %dx%d want %dx%d" p.out_h p.out_w expect_h expect_w

(* Tensor base VAs as unboxed ints; element [idx] of a buffer at [base] is
   the f32 at [base + 4*idx]. The stream accessors index bytes within a
   4 KiB page, so bases must be 4-aligned — [execute] checks this once. *)

let conv2d ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  let first_oc, n_oc = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
  let in_idx = chw ~h:p.in_h ~w:p.in_w in
  let out_idx = chw ~h:p.out_h ~w:p.out_w in
  let inb = Int64.to_int d.input_va
  and wb = Int64.to_int d.input2_va
  and bb = Int64.to_int d.bias_va
  and ob = Int64.to_int d.output_va in
  for oc = first_oc to first_oc + n_oc - 1 do
    let bias = if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * oc)) in
    for oy = 0 to p.out_h - 1 do
      for ox = 0 to p.out_w - 1 do
        let acc = ref bias in
        for ic = 0 to p.in_c - 1 do
          for ky = 0 to p.kh - 1 do
            let iy = (oy * p.stride) + ky - p.pad in
            if iy >= 0 && iy < p.in_h then
              for kx = 0 to p.kw - 1 do
                let ix = (ox * p.stride) + kx - p.pad in
                if ix >= 0 && ix < p.in_w then begin
                  let wi = (((((oc * p.in_c) + ic) * p.kh) + ky) * p.kw) + kx in
                  let v = getf ctx.c_in (inb + (4 * in_idx ic iy ix)) in
                  let w = getf ctx.c_in2 (wb + (4 * wi)) in
                  acc := !acc +. (v *. w)
                end
              done
          done
        done;
        let r = if p.relu && !acc < 0.0 then 0.0 else !acc in
        setf ctx.c_out (ob + (4 * out_idx oc oy ox)) r
      done
    done
  done

let depthwise ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  if p.in_c <> p.out_c then fail "depthwise needs in_c = out_c";
  let in_idx = chw ~h:p.in_h ~w:p.in_w in
  let out_idx = chw ~h:p.out_h ~w:p.out_w in
  let inb = Int64.to_int d.input_va
  and wb = Int64.to_int d.input2_va
  and bb = Int64.to_int d.bias_va
  and ob = Int64.to_int d.output_va in
  for c = 0 to p.out_c - 1 do
    let bias = if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * c)) in
    for oy = 0 to p.out_h - 1 do
      for ox = 0 to p.out_w - 1 do
        let acc = ref bias in
        for ky = 0 to p.kh - 1 do
          let iy = (oy * p.stride) + ky - p.pad in
          if iy >= 0 && iy < p.in_h then
            for kx = 0 to p.kw - 1 do
              let ix = (ox * p.stride) + kx - p.pad in
              if ix >= 0 && ix < p.in_w then begin
                let wi = (((c * p.kh) + ky) * p.kw) + kx in
                acc := !acc +. (getf ctx.c_in (inb + (4 * in_idx c iy ix)) *. getf ctx.c_in2 (wb + (4 * wi)))
              end
            done
        done;
        let r = if p.relu && !acc < 0.0 then 0.0 else !acc in
        setf ctx.c_out (ob + (4 * out_idx c oy ox)) r
      done
    done
  done

let fc ctx (d : Job_desc.t) =
  let p = d.params in
  let in_n = p.in_c * p.in_h * p.in_w in
  let out_n = p.out_c in
  if in_n <= 0 || out_n <= 0 then fail "fc: empty shape";
  let first, count = partition_range ~total:out_n ~part_idx:p.part_idx ~part_count:p.part_count in
  let inb = Int64.to_int d.input_va
  and wb = Int64.to_int d.input2_va
  and bb = Int64.to_int d.bias_va
  and ob = Int64.to_int d.output_va in
  for o = first to first + count - 1 do
    let acc = ref (if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * o))) in
    for i = 0 to in_n - 1 do
      acc := !acc +. (getf ctx.c_in (inb + (4 * i)) *. getf ctx.c_in2 (wb + (4 * ((o * in_n) + i))))
    done;
    let r = if p.relu && !acc < 0.0 then 0.0 else !acc in
    setf ctx.c_out (ob + (4 * o)) r
  done

let maxpool ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  if p.in_c <> p.out_c then fail "maxpool needs in_c = out_c";
  let in_idx = chw ~h:p.in_h ~w:p.in_w in
  let out_idx = chw ~h:p.out_h ~w:p.out_w in
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for c = 0 to p.out_c - 1 do
    for oy = 0 to p.out_h - 1 do
      for ox = 0 to p.out_w - 1 do
        let best = ref neg_infinity in
        for ky = 0 to p.kh - 1 do
          let iy = (oy * p.stride) + ky - p.pad in
          if iy >= 0 && iy < p.in_h then
            for kx = 0 to p.kw - 1 do
              let ix = (ox * p.stride) + kx - p.pad in
              if ix >= 0 && ix < p.in_w then begin
                let v = getf ctx.c_in (inb + (4 * in_idx c iy ix)) in
                if v > !best then best := v
              end
            done
        done;
        setf ctx.c_out (ob + (4 * out_idx c oy ox)) !best
      done
    done
  done

let avgpool_global ctx (d : Job_desc.t) =
  let p = d.params in
  if p.out_h <> 1 || p.out_w <> 1 || p.in_c <> p.out_c then fail "avgpool: expects global CxHxW -> Cx1x1";
  let n = p.in_h * p.in_w in
  let in_idx = chw ~h:p.in_h ~w:p.in_w in
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for c = 0 to p.in_c - 1 do
    let acc = ref 0.0 in
    for y = 0 to p.in_h - 1 do
      for x = 0 to p.in_w - 1 do
        acc := !acc +. getf ctx.c_in (inb + (4 * in_idx c y x))
      done
    done;
    setf ctx.c_out (ob + (4 * c)) (!acc /. float_of_int n)
  done

let flat_len (p : Job_desc.params) = p.out_c * p.out_h * p.out_w

let relu ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    let v = getf ctx.c_in (inb + (4 * i)) in
    setf ctx.c_out (ob + (4 * i)) (if v < 0.0 then 0.0 else v)
  done

let copy ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_in (inb + (4 * i)))
  done

let add ctx (d : Job_desc.t) =
  let p = d.params in
  let inb = Int64.to_int d.input_va
  and in2b = Int64.to_int d.input2_va
  and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len p - 1 do
    let v = getf ctx.c_in (inb + (4 * i)) +. getf ctx.c_in2 (in2b + (4 * i)) in
    setf ctx.c_out (ob + (4 * i)) (if p.relu && v < 0.0 then 0.0 else v)
  done

let unary_elementwise f ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setf ctx.c_out (ob + (4 * i)) (f (getf ctx.c_in (inb + (4 * i))))
  done

let mul ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va
  and in2b = Int64.to_int d.input2_va
  and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_in (inb + (4 * i)) *. getf ctx.c_in2 (in2b + (4 * i)))
  done

let concat2 ctx (d : Job_desc.t) =
  let p = d.params in
  if p.in_c + p.in2_c <> p.out_c then fail "concat2: channel mismatch";
  if p.in_h <> p.out_h || p.in_w <> p.out_w then fail "concat2: spatial mismatch";
  let plane = p.out_h * p.out_w in
  let inb = Int64.to_int d.input_va
  and in2b = Int64.to_int d.input2_va
  and ob = Int64.to_int d.output_va in
  for i = 0 to (p.in_c * plane) - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_in (inb + (4 * i)))
  done;
  let off = p.in_c * plane in
  for i = 0 to (p.in2_c * plane) - 1 do
    setf ctx.c_out (ob + (4 * (off + i))) (getf ctx.c_in2 (in2b + (4 * i)))
  done

let softmax ctx (d : Job_desc.t) =
  let p = d.params in
  let n = p.in_c * p.in_h * p.in_w in
  if n <= 0 then fail "softmax: empty";
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  let m = ref neg_infinity in
  for i = 0 to n - 1 do
    let v = getf ctx.c_in (inb + (4 * i)) in
    if v > !m then m := v
  done;
  let sum = ref 0.0 in
  for i = 0 to n - 1 do
    let e = exp (getf ctx.c_in (inb + (4 * i)) -. !m) in
    setf ctx.c_out (ob + (4 * i)) e;
    sum := !sum +. e
  done;
  for i = 0 to n - 1 do
    setf ctx.c_out (ob + (4 * i)) (getf ctx.c_out (ob + (4 * i)) /. !sum)
  done

(* Stream offsets are computed page-relative, so tensor bases must be f32
   aligned (real command streams guarantee this; a descriptor that does not
   is malformed). *)
let check_aligned (d : Job_desc.t) =
  let bad v = Int64.logand v 3L <> 0L in
  if bad d.input_va || bad d.input2_va || bad d.bias_va || bad d.output_va then
    fail "tensor VA not 4-byte aligned"

let execute ctx (d : Job_desc.t) =
  check_aligned d;
  match d.op with
  | Shader.Conv2d -> conv2d ctx d
  | Shader.Depthwise -> depthwise ctx d
  | Shader.Fc -> fc ctx d
  | Shader.Maxpool -> maxpool ctx d
  | Shader.Avgpool -> avgpool_global ctx d
  | Shader.Relu -> relu ctx d
  | Shader.Copy -> copy ctx d
  | Shader.Add -> add ctx d
  | Shader.Concat2 -> concat2 ctx d
  | Shader.Softmax -> softmax ctx d
  | Shader.Tanh -> unary_elementwise tanh ctx d
  | Shader.Sigmoid -> unary_elementwise (fun x -> 1.0 /. (1.0 +. exp (-.x))) ctx d
  | Shader.Mul -> mul ctx d
