exception Kernel_fault of string

(* Kernels see memory as 4 KiB pages of bytes, through per-buffer streams.
   Each stream is a one-entry TLB: a page-aligned VA plus the backing bytes
   of that page, refilled by [smiss] (which performs MMU translation on the
   device, or page-table lookup in [Flat]). Separate streams per operand
   matter: a conv inner loop alternates input and weight reads, and a shared
   cache would miss on every access. The hit path is pure unboxed int
   arithmetic — no [int64] or float boxing — which is what makes simulated
   job execution cheap enough to benchmark the machinery around it. *)

type stream = {
  mutable sbase : int;  (** page-aligned VA of the cached page; -1 = empty *)
  mutable spage : bytes;  (** backing bytes of that page *)
  smiss : stream -> int -> bytes;
      (** refill: resolve [va]'s page, store it in the stream, return it *)
}

type ctx = { c_in : stream; c_in2 : stream; c_bias : stream; c_out : stream }

let new_stream smiss = { sbase = -1; spage = Bytes.empty; smiss }

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

(* A self-contained paged address space: the reference executor and kernel
   unit tests need [ctx]s that are not backed by a simulated device. Pages
   materialize on first touch (reads of untouched memory see zeros) and are
   shared between all four streams, so reads always observe prior writes. *)
module Flat = struct
  type t = (int, bytes) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let page (t : t) va =
    let pn = va lsr 12 in
    match Hashtbl.find_opt t pn with
    | Some p -> p
    | None ->
      let p = Bytes.make 4096 '\000' in
      Hashtbl.replace t pn p;
      p

  let ctx t =
    let miss (s : stream) va =
      let p = page t va in
      s.sbase <- va land lnot 0xFFF;
      s.spage <- p;
      p
    in
    { c_in = new_stream miss; c_in2 = new_stream miss; c_bias = new_stream miss; c_out = new_stream miss }

  let read_f32 t va =
    let va = Int64.to_int va in
    Int32.float_of_bits (get32_le (page t va) (va land 0xFFF))

  let write_f32 t va v =
    let va = Int64.to_int va in
    set32_le (page t va) (va land 0xFFF) (Int32.bits_of_float v)
end

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

(* ---- conv2d ----

   The per-element loop is the semantics; the staged path computes the same
   floats in the same order from a scratch copy of the job's read set (see
   kernels.mli for the rules that keep the two indistinguishable). Run as a
   loop, each input element is decoded about [n_oc * kh * kw / stride^2]
   times and each multiply-add pays two page checks.

   Pages are told apart by object identity. The device serves reads of
   unmaterialized pages from one shared zero page and materializes a fresh
   page on the first write, so a page read through one VA and first written
   through another is not caught; the loop, too, keeps reading zeros there
   from its cached translation, unless the device's TLB evicts it. *)

let[@inline] imax (a : int) b = if a >= b then a else b
let[@inline] imin (a : int) b = if a <= b then a else b

let conv2d_elements ctx (d : Job_desc.t) ~first_oc ~n_oc =
  let p = d.params in
  let s = p.stride and pad = p.pad in
  let in_idx = chw ~h:p.in_h ~w:p.in_w in
  let out_idx = chw ~h:p.out_h ~w:p.out_w in
  let inb = Int64.to_int d.input_va
  and wb = Int64.to_int d.input2_va
  and bb = Int64.to_int d.bias_va
  and ob = Int64.to_int d.output_va in
  for oc = first_oc to first_oc + n_oc - 1 do
    let bias = if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * oc)) in
    for oy = 0 to p.out_h - 1 do
      let ky0 = imax 0 (pad - (oy * s)) and ky1 = imin p.kh (p.in_h + pad - (oy * s)) in
      for ox = 0 to p.out_w - 1 do
        let kx0 = imax 0 (pad - (ox * s)) and kx1 = imin p.kw (p.in_w + pad - (ox * s)) in
        let acc = ref bias in
        for ic = 0 to p.in_c - 1 do
          for ky = ky0 to ky1 - 1 do
            let iy = (oy * s) + ky - pad in
            for kx = kx0 to kx1 - 1 do
              let ix = (ox * s) + kx - pad in
              let wi = (((((oc * p.in_c) + ic) * p.kh) + ky) * p.kw) + kx in
              let v = getf ctx.c_in (inb + (4 * in_idx ic iy ix)) in
              let w = getf ctx.c_in2 (wb + (4 * wi)) in
              acc := !acc +. (v *. w)
            done
          done
        done;
        let r = if p.relu && !acc < 0.0 then 0.0 else !acc in
        setf ctx.c_out (ob + (4 * out_idx oc oy ox)) r
      done
    done
  done

(* The staging scratch, grow-only and sized by the largest conv job seen
   (kernels run on one domain). [xs] holds the input in CHW order, then the
   job's weights, then its biases; only read-set cells are written. [mask]
   flags which input rows and columns and kernel rows and columns the loop
   reads. [pages] lists the page objects staging read from; it is cleared
   before the job computes, so it keeps no page alive. *)
type staging = {
  mutable xs : Float.Array.t;
  mutable mask : Bytes.t;
  mutable pages : bytes array;
  mutable n_pages : int;
}

let st = { xs = Float.Array.create 0; mask = Bytes.empty; pages = [||]; n_pages = 0 }

(* Larger jobs (only malformed descriptors come near) run the per-element
   loop rather than allocate scratch for them. *)
let stage_max = 1 lsl 20

(* Some [o] in [0, n) has [o * stride] in [lo, lo + len). *)
let hits ~lo ~len ~stride ~n =
  let o = if lo <= 0 then 0 else (lo + stride - 1) / stride in
  o < n && o * stride < lo + len

let note_page p =
  let n = st.n_pages in
  if n = 0 || Array.unsafe_get st.pages (n - 1) != p then begin
    if n = Array.length st.pages then begin
      let grown = Array.make (imax 16 (2 * n)) Bytes.empty in
      Array.blit st.pages 0 grown 0 n;
      st.pages <- grown
    end;
    st.pages.(n) <- p;
    st.n_pages <- n + 1
  end

let[@inline] flag m i b = Bytes.unsafe_set m i (if b then '\001' else '\000')
let[@inline] flagged m i = Bytes.unsafe_get m i <> '\000'

let[@inline] stage_get (s : stream) va =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  note_page p;
  Int32.float_of_bits (get32_le p (va land 0xFFF))

let staged_page p =
  let rec go i = i < st.n_pages && (Array.unsafe_get st.pages i == p || go (i + 1)) in
  go 0

let clear_pages () =
  Array.fill st.pages 0 st.n_pages Bytes.empty;
  st.n_pages <- 0

(* [n] f32s from element [lo] of the buffer at [base] lie outside the
   bytes [[ob, oe)]. *)
let apart ~ob ~oe base lo n = base + (4 * (lo + n)) <= ob || oe <= base + (4 * lo)

(* Whether the job fits the staged path: positive sizes within
   [stage_max], VAs within 48 bits, and no output byte on a source byte. *)
let stageable (d : Job_desc.t) ~first_oc ~n_oc =
  let p = d.params in
  let small n = n >= 1 && n <= stage_max in
  let va_ok v = Int64.compare v 0L >= 0 && Int64.compare v 0x1_0000_0000_0000L < 0 in
  small p.in_c && small p.in_h && small p.in_w
  && small (p.in_c * p.in_h)
  && small (p.in_c * p.in_h * p.in_w)
  && small n_oc && small p.kh && small p.kw
  && small (n_oc * p.in_c)
  && small (n_oc * p.in_c * p.kh)
  && small (n_oc * p.in_c * p.kh * p.kw)
  && small p.out_h && small p.out_w && small p.stride
  && p.pad >= 0 && p.pad <= stage_max
  && va_ok d.input_va && va_ok d.input2_va && va_ok d.bias_va && va_ok d.output_va
  &&
  let plane = p.out_h * p.out_w and per_oc = p.in_c * p.kh * p.kw in
  let ob = Int64.to_int d.output_va + (4 * first_oc * plane) in
  let oe = ob + (4 * n_oc * plane) in
  apart ~ob ~oe (Int64.to_int d.input_va) 0 (p.in_c * p.in_h * p.in_w)
  && apart ~ob ~oe (Int64.to_int d.input2_va) (first_oc * per_oc) (n_oc * per_oc)
  && (d.bias_va = 0L || apart ~ob ~oe (Int64.to_int d.bias_va) first_oc n_oc)

(* Decode the job's read set into [st.xs], then resolve its output pages in
   order. False when an output page is a page object staging read from;
   raises what the streams raise. *)
let stage ctx (d : Job_desc.t) ~first_oc ~n_oc =
  let p = d.params in
  let in_c = p.in_c and in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let s = p.stride and pad = p.pad in
  let plane = in_h * in_w and per_oc = in_c * kh * kw in
  let w_off = in_c * plane in
  let b_off = w_off + (n_oc * per_oc) in
  if Float.Array.length st.xs < b_off + n_oc then
    st.xs <- Float.Array.create (imax (b_off + n_oc) (2 * Float.Array.length st.xs));
  let nm = in_h + in_w + kh + kw in
  if Bytes.length st.mask < nm then st.mask <- Bytes.create (imax nm (2 * Bytes.length st.mask));
  let xs = st.xs and m = st.mask in
  (* mask layout: input rows, input columns, kernel rows, kernel columns *)
  let cols = in_h and krows = in_h + in_w in
  let kcols = krows + kh in
  for iy = 0 to in_h - 1 do
    flag m iy (hits ~lo:(iy + pad - kh + 1) ~len:kh ~stride:s ~n:p.out_h)
  done;
  for ix = 0 to in_w - 1 do
    flag m (cols + ix) (hits ~lo:(ix + pad - kw + 1) ~len:kw ~stride:s ~n:p.out_w)
  done;
  for ky = 0 to kh - 1 do
    flag m (krows + ky) (hits ~lo:(pad - ky) ~len:in_h ~stride:s ~n:p.out_h)
  done;
  for kx = 0 to kw - 1 do
    flag m (kcols + kx) (hits ~lo:(pad - kx) ~len:in_w ~stride:s ~n:p.out_w)
  done;
  st.n_pages <- 0;
  let bb = Int64.to_int d.bias_va in
  for r = 0 to n_oc - 1 do
    Float.Array.unsafe_set xs (b_off + r)
      (if bb = 0 then 0.0 else stage_get ctx.c_bias (bb + (4 * (first_oc + r))))
  done;
  let wb = Int64.to_int d.input2_va + (4 * first_oc * per_oc) in
  for r = 0 to n_oc - 1 do
    for ic = 0 to in_c - 1 do
      for ky = 0 to kh - 1 do
        if flagged m (krows + ky) then
          for kx = 0 to kw - 1 do
            if flagged m (kcols + kx) then begin
              let wi = (((((r * in_c) + ic) * kh) + ky) * kw) + kx in
              Float.Array.unsafe_set xs (w_off + wi) (stage_get ctx.c_in2 (wb + (4 * wi)))
            end
          done
      done
    done
  done;
  let inb = Int64.to_int d.input_va in
  for ic = 0 to in_c - 1 do
    for iy = 0 to in_h - 1 do
      if flagged m iy then
        for ix = 0 to in_w - 1 do
          if flagged m (cols + ix) then begin
            let i = (((ic * in_h) + iy) * in_w) + ix in
            Float.Array.unsafe_set xs i (stage_get ctx.c_in (inb + (4 * i)))
          end
        done
    done
  done;
  let out_plane = p.out_h * p.out_w in
  let ob = Int64.to_int d.output_va + (4 * first_oc * out_plane) in
  let oe = ob + (4 * n_oc * out_plane) in
  let out = ctx.c_out and va = ref ob and apart = ref true in
  while !apart && !va < oe do
    let page = !va land lnot 0xFFF in
    let p = if page = out.sbase then out.spage else out.smiss out !va in
    apart := not (staged_page p);
    va := page + 0x1000
  done;
  clear_pages ();
  !apart

(* The per-element loop's float operations, over the staged scratch. *)
let conv2d_staged ctx (d : Job_desc.t) ~first_oc ~n_oc =
  let p = d.params in
  let in_c = p.in_c and in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let out_h = p.out_h and out_w = p.out_w and s = p.stride and pad = p.pad in
  let plane = in_h * in_w and per_oc = in_c * kh * kw in
  let w_off = in_c * plane in
  let b_off = w_off + (n_oc * per_oc) in
  let xs = st.xs and ob = Int64.to_int d.output_va in
  for r = 0 to n_oc - 1 do
    let oc = first_oc + r in
    let bias = Float.Array.unsafe_get xs (b_off + r) in
    let w_oc = w_off + (r * per_oc) in
    for oy = 0 to out_h - 1 do
      let ky0 = imax 0 (pad - (oy * s)) and ky1 = imin kh (in_h + pad - (oy * s)) in
      for ox = 0 to out_w - 1 do
        let kx0 = imax 0 (pad - (ox * s)) and kx1 = imin kw (in_w + pad - (ox * s)) in
        (* index of input (0, oy*s - pad, ox*s - pad), maybe in the padding *)
        let x0 = ((((oy * s) - pad) * in_w) + (ox * s)) - pad in
        let acc = ref bias in
        for ic = 0 to in_c - 1 do
          for ky = ky0 to ky1 - 1 do
            let xrow = x0 + (ic * plane) + (ky * in_w) and wrow = w_oc + (((ic * kh) + ky) * kw) in
            for kx = kx0 to kx1 - 1 do
              acc :=
                !acc +. (Float.Array.unsafe_get xs (xrow + kx) *. Float.Array.unsafe_get xs (wrow + kx))
            done
          done
        done;
        let v = if p.relu && !acc < 0.0 then 0.0 else !acc in
        setf ctx.c_out (ob + (4 * ((((oc * out_h) + oy) * out_w) + ox))) v
      done
    done
  done

let conv2d ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  let first_oc, n_oc = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
  let staged =
    stageable d ~first_oc ~n_oc
    &&
    match stage ctx d ~first_oc ~n_oc with
    | apart -> apart
    | exception _ ->
      clear_pages ();
      false
  in
  if staged then conv2d_staged ctx d ~first_oc ~n_oc else conv2d_elements ctx d ~first_oc ~n_oc

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
  let s = p.stride and pad = p.pad in
  for c = 0 to p.out_c - 1 do
    let bias = if bb = 0 then 0.0 else getf ctx.c_bias (bb + (4 * c)) in
    for oy = 0 to p.out_h - 1 do
      let ky0 = imax 0 (pad - (oy * s)) and ky1 = imin p.kh (p.in_h + pad - (oy * s)) in
      for ox = 0 to p.out_w - 1 do
        let kx0 = imax 0 (pad - (ox * s)) and kx1 = imin p.kw (p.in_w + pad - (ox * s)) in
        let acc = ref bias in
        for ky = ky0 to ky1 - 1 do
          let iy = (oy * s) + ky - pad in
          for kx = kx0 to kx1 - 1 do
            let ix = (ox * s) + kx - pad in
            let wi = (((c * p.kh) + ky) * p.kw) + kx in
            acc := !acc +. (getf ctx.c_in (inb + (4 * in_idx c iy ix)) *. getf ctx.c_in2 (wb + (4 * wi)))
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
  let s = p.stride and pad = p.pad in
  for c = 0 to p.out_c - 1 do
    for oy = 0 to p.out_h - 1 do
      let ky0 = imax 0 (pad - (oy * s)) and ky1 = imin p.kh (p.in_h + pad - (oy * s)) in
      for ox = 0 to p.out_w - 1 do
        let kx0 = imax 0 (pad - (ox * s)) and kx1 = imin p.kw (p.in_w + pad - (ox * s)) in
        let best = ref neg_infinity in
        for ky = ky0 to ky1 - 1 do
          let iy = (oy * s) + ky - pad in
          for kx = kx0 to kx1 - 1 do
            let ix = (ox * s) + kx - pad in
            let v = getf ctx.c_in (inb + (4 * in_idx c iy ix)) in
            if v > !best then best := v
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

let flops op (p : Job_desc.params) =
  let i64 = Int64.of_int in
  let out_plane = p.out_h * p.out_w in
  match op with
  | Shader.Conv2d ->
    let _, n_oc = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
    i64 (2 * n_oc * out_plane * p.in_c * p.kh * p.kw)
  | Shader.Depthwise -> i64 (2 * p.out_c * out_plane * p.kh * p.kw)
  | Shader.Fc ->
    let in_n = p.in_c * p.in_h * p.in_w in
    let _, count = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
    i64 (2 * count * in_n)
  | Shader.Maxpool -> i64 (p.out_c * out_plane * p.kh * p.kw)
  | Shader.Avgpool -> i64 (p.in_c * p.in_h * p.in_w)
  | Shader.Relu | Shader.Copy -> i64 (p.out_c * out_plane)
  | Shader.Add | Shader.Mul -> i64 (2 * p.out_c * out_plane)
  | Shader.Tanh | Shader.Sigmoid -> i64 (8 * p.out_c * out_plane)
  | Shader.Concat2 -> i64 (p.out_c * out_plane)
  | Shader.Softmax -> i64 (4 * p.in_c * p.in_h * p.in_w)
