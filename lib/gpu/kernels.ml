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

(* Unchecked variants for the page-run loops, which check each page's
   length once for the whole run. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] get32u_le b i = if Sys.big_endian then swap32 (get32u b i) else get32u b i
let[@inline] set32u_le b i v = set32u b i (if Sys.big_endian then swap32 v else v)

let[@inline] getf (s : stream) va =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  Int32.float_of_bits (get32_le p (va land 0xFFF))

let[@inline] setf (s : stream) va v =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  set32_le p (va land 0xFFF) (Int32.bits_of_float v)

(* The f32 at [va] as its 32 bits, and the write of such bits: the kernels
   that only move or compare values skip the two C calls of a decode and
   an encode. *)
let[@inline] getb (s : stream) va =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  Int32.to_int (get32_le p (va land 0xFFF)) land 0xFFFF_FFFF

let[@inline] setb (s : stream) va b =
  let page = va land lnot 0xFFF in
  let p = if page = s.sbase then s.spage else s.smiss s va in
  set32_le p (va land 0xFFF) (Int32.of_int b)

let[@inline] is_nan_bits b = b land 0x7F80_0000 = 0x7F80_0000 && b land 0x7F_FFFF <> 0

(* What [setf (getf b)] stores: the same bits, but for a NaN, which the
   trip through a double may quiet; that case takes the trip itself. *)
let[@inline] round_trip b =
  if is_nan_bits b then
    Int32.to_int (Int32.bits_of_float (Int32.float_of_bits (Int32.of_int b))) land 0xFFFF_FFFF
  else b

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

(* The staging scratch, grow-only and sized by the largest staged job seen
   (kernels run on one domain). [xs] holds the input in CHW order, then the
   job's weights, then its biases, then its outputs; only read-set cells
   are written before the job computes. [mask] flags which input rows and
   columns and kernel rows and columns the loop reads. [pages] lists the
   page objects staging read from; it is cleared before the job computes,
   so it keeps no page alive. *)
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

(* Decode [n] f32s from the buffer at [va] into [xs] from [dst]: each page
   is resolved once through the stream and noted, then read in one loop. *)
let stage_run (s : stream) xs ~dst ~va ~n =
  let i = ref 0 in
  while !i < n do
    let a = va + (4 * !i) in
    let page = a land lnot 0xFFF in
    let p = if page = s.sbase then s.spage else s.smiss s a in
    note_page p;
    let off = a land 0xFFF in
    let k = imin (n - !i) ((0x1000 - off) / 4) in
    if off + (4 * k) > Bytes.length p then invalid_arg "index out of bounds";
    let d = dst + !i in
    for j = 0 to k - 1 do
      Float.Array.unsafe_set xs (d + j) (Int32.float_of_bits (get32u_le p (off + (4 * j))))
    done;
    i := !i + k
  done

let all_flagged m lo n =
  let i = ref 0 in
  while !i < n && flagged m (lo + !i) do
    incr i
  done;
  !i = n

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
   [stage_max], VAs within 48 bits, and no output byte on a source byte.
   Each output channel's weights are [w_in_c] input channels of taps:
   all of [in_c] for a conv, one for a depthwise conv. *)
let stageable (d : Job_desc.t) ~first_oc ~n_oc ~w_in_c =
  let p = d.params in
  let small n = n >= 1 && n <= stage_max in
  let va_ok v = Int64.compare v 0L >= 0 && Int64.compare v 0x1_0000_0000_0000L < 0 in
  small p.in_c && small p.in_h && small p.in_w
  && small (p.in_c * p.in_h)
  && small (p.in_c * p.in_h * p.in_w)
  && small n_oc && small p.kh && small p.kw
  && small (n_oc * w_in_c)
  && small (n_oc * w_in_c * p.kh)
  && small (n_oc * w_in_c * p.kh * p.kw)
  && small p.out_h && small p.out_w && small p.stride
  && small (p.out_h * p.out_w)
  && small (n_oc * p.out_h * p.out_w)
  && p.pad >= 0 && p.pad <= stage_max
  && va_ok d.input_va && va_ok d.input2_va && va_ok d.bias_va && va_ok d.output_va
  &&
  let plane = p.out_h * p.out_w and per_oc = w_in_c * p.kh * p.kw in
  let ob = Int64.to_int d.output_va + (4 * first_oc * plane) in
  let oe = ob + (4 * n_oc * plane) in
  apart ~ob ~oe (Int64.to_int d.input_va) 0 (p.in_c * p.in_h * p.in_w)
  && apart ~ob ~oe (Int64.to_int d.input2_va) (first_oc * per_oc) (n_oc * per_oc)
  && (d.bias_va = 0L || apart ~ob ~oe (Int64.to_int d.bias_va) first_oc n_oc)

(* Decode the job's read set into [st.xs], then resolve its output pages in
   order. False when an output page is a page object staging read from;
   raises what the streams raise. *)
let stage ctx (d : Job_desc.t) ~first_oc ~n_oc ~w_in_c =
  let p = d.params in
  let in_c = p.in_c and in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let s = p.stride and pad = p.pad in
  let plane = in_h * in_w and per_oc = w_in_c * kh * kw in
  let w_off = in_c * plane in
  let b_off = w_off + (n_oc * per_oc) in
  let need = b_off + n_oc + (n_oc * p.out_h * p.out_w) in
  if Float.Array.length st.xs < need then
    st.xs <- Float.Array.create (imax need (2 * Float.Array.length st.xs));
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
  (* Both sources are staged in ascending VA order, as one run per page
     where the mask has no gaps (the whole input when every row and column
     is read) and element by element where it has. *)
  let wb = Int64.to_int d.input2_va + (4 * first_oc * per_oc) in
  if all_flagged m krows (kh + kw) then stage_run ctx.c_in2 xs ~dst:w_off ~va:wb ~n:(n_oc * per_oc)
  else
    for r = 0 to n_oc - 1 do
      for ic = 0 to w_in_c - 1 do
        for ky = 0 to kh - 1 do
          if flagged m (krows + ky) then
            for kx = 0 to kw - 1 do
              if flagged m (kcols + kx) then begin
                let wi = (((((r * w_in_c) + ic) * kh) + ky) * kw) + kx in
                Float.Array.unsafe_set xs (w_off + wi) (stage_get ctx.c_in2 (wb + (4 * wi)))
              end
            done
        done
      done
    done;
  let inb = Int64.to_int d.input_va in
  let whole_rows = all_flagged m cols in_w in
  if whole_rows && all_flagged m 0 in_h then stage_run ctx.c_in xs ~dst:0 ~va:inb ~n:(in_c * plane)
  else
    for ic = 0 to in_c - 1 do
      for iy = 0 to in_h - 1 do
        if flagged m iy then begin
          let row = ((ic * in_h) + iy) * in_w in
          if whole_rows then stage_run ctx.c_in xs ~dst:row ~va:(inb + (4 * row)) ~n:in_w
          else
            for ix = 0 to in_w - 1 do
              if flagged m (cols + ix) then
                Float.Array.unsafe_set xs (row + ix) (stage_get ctx.c_in (inb + (4 * (row + ix))))
            done
        end
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

let[@inline] relu_if relu v = if relu && v < 0.0 then 0.0 else v

(* The per-element loop's float operations, over the staged scratch; each
   output goes to its cell of the scratch's output block, and [store_run]
   writes the block out at the end. Every output is its bias, then its
   [ic]/[ky]/[kx] products in the loop's order, then ReLU.

   A position's valid kernel rows depend only on its output row, and its
   valid kernel columns only on its output column, so a channel's plane
   splits into rectangles of positions with equal tap ranges: the
   interior, each border row and column, and the corners. [rect] walks one
   rectangle in row order, across row ends, several positions at a time:
   one weight load feeds independent accumulators, so the adds of
   different outputs overlap instead of waiting on each other. Three-tap
   ranges (3x3 kernels) go eight at a time with [kx] unrolled; the rest,
   and a three-tap rectangle's last four to seven positions, go four at a
   time, unrolled for five taps when the four positions are adjacent in a
   row. Fewer than four positions left run one at a time. Arguments are
   indices into [xs] (a float argument would be boxed); [x00] is the input
   index of tap (0, 0, 0) of the rectangle's first position, maybe in the
   padding, and [dst] its output cell. *)
(* The position [rect] is at: its column in its row, the input index of
   its tap (0, 0, 0) and its output cell. One record for the process
   (kernels run on one domain): local refs stepped by a local function
   would be captured, and so allocated, per call. *)
type cursor = { mutable col : int; mutable x : int; mutable o : int }

let cursor = { col = 0; x = 0; o = 0 }

(* The next position in row order, across the end of a row. *)
let[@inline] step c ~cols ~s ~row_back ~out_back =
  if c.col + 1 = cols then begin
    c.col <- 0;
    c.x <- c.x + row_back;
    c.o <- c.o + out_back
  end
  else begin
    c.col <- c.col + 1;
    c.x <- c.x + s;
    c.o <- c.o + 1
  end

let rect xs ~in_c ~plane ~in_w ~kh ~kw ~s ~ky0 ~ky1 ~kx0 ~kx1 ~w_oc ~bias ~relu ~rows ~cols ~x00
    ~dst ~out_w =
  let b = Float.Array.unsafe_get xs bias in
  let kn = kx1 - kx0 in
  let w_oc = w_oc + kx0 and x00 = x00 + kx0 in
  let row_step = s * in_w in
  let row_back = row_step - ((cols - 1) * s) and out_back = out_w - (cols - 1) in
  let c = cursor in
  c.col <- 0;
  c.x <- x00;
  c.o <- dst;
  let left = ref (rows * cols) in
  while kn = 3 && !left >= 8 do
    let xa = c.x and da = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xb = c.x and db = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xc = c.x and dc = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xd = c.x and dd = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xe = c.x and de = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xf = c.x and df = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xg = c.x and dg = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xh = c.x and dh = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let a0 = ref b and a1 = ref b and a2 = ref b and a3 = ref b in
    let a4 = ref b and a5 = ref b and a6 = ref b and a7 = ref b in
    for ic = 0 to in_c - 1 do
      for ky = ky0 to ky1 - 1 do
        let off = (ic * plane) + (ky * in_w) and w = w_oc + (((ic * kh) + ky) * kw) in
        let w0 = Float.Array.unsafe_get xs w
        and w1 = Float.Array.unsafe_get xs (w + 1)
        and w2 = Float.Array.unsafe_get xs (w + 2) in
        let i = xa + off in
        a0 := !a0 +. (Float.Array.unsafe_get xs i *. w0);
        a0 := !a0 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a0 := !a0 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xb + off in
        a1 := !a1 +. (Float.Array.unsafe_get xs i *. w0);
        a1 := !a1 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a1 := !a1 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xc + off in
        a2 := !a2 +. (Float.Array.unsafe_get xs i *. w0);
        a2 := !a2 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a2 := !a2 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xd + off in
        a3 := !a3 +. (Float.Array.unsafe_get xs i *. w0);
        a3 := !a3 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a3 := !a3 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xe + off in
        a4 := !a4 +. (Float.Array.unsafe_get xs i *. w0);
        a4 := !a4 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a4 := !a4 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xf + off in
        a5 := !a5 +. (Float.Array.unsafe_get xs i *. w0);
        a5 := !a5 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a5 := !a5 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xg + off in
        a6 := !a6 +. (Float.Array.unsafe_get xs i *. w0);
        a6 := !a6 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a6 := !a6 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
        let i = xh + off in
        a7 := !a7 +. (Float.Array.unsafe_get xs i *. w0);
        a7 := !a7 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
        a7 := !a7 +. (Float.Array.unsafe_get xs (i + 2) *. w2)
      done
    done;
    Float.Array.unsafe_set xs da (relu_if relu !a0);
    Float.Array.unsafe_set xs db (relu_if relu !a1);
    Float.Array.unsafe_set xs dc (relu_if relu !a2);
    Float.Array.unsafe_set xs dd (relu_if relu !a3);
    Float.Array.unsafe_set xs de (relu_if relu !a4);
    Float.Array.unsafe_set xs df (relu_if relu !a5);
    Float.Array.unsafe_set xs dg (relu_if relu !a6);
    Float.Array.unsafe_set xs dh (relu_if relu !a7);
    left := !left - 8
  done;
  while !left >= 4 do
    let xa = c.x and da = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xb = c.x and db = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xc = c.x and dc = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let xd = c.x and dd = c.o in
    step c ~cols ~s ~row_back ~out_back;
    let a0 = ref b and a1 = ref b and a2 = ref b and a3 = ref b in
    if kn = 5 && xd - xa = 3 * s && xb - xa = s && xc - xb = s then
      for ic = 0 to in_c - 1 do
        for ky = ky0 to ky1 - 1 do
          let i = xa + (ic * plane) + (ky * in_w) and w = w_oc + (((ic * kh) + ky) * kw) in
          let w0 = Float.Array.unsafe_get xs w
          and w1 = Float.Array.unsafe_get xs (w + 1)
          and w2 = Float.Array.unsafe_get xs (w + 2)
          and w3 = Float.Array.unsafe_get xs (w + 3)
          and w4 = Float.Array.unsafe_get xs (w + 4) in
          a0 := !a0 +. (Float.Array.unsafe_get xs i *. w0);
          a0 := !a0 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
          a0 := !a0 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
          a0 := !a0 +. (Float.Array.unsafe_get xs (i + 3) *. w3);
          a0 := !a0 +. (Float.Array.unsafe_get xs (i + 4) *. w4);
          let i = i + s in
          a1 := !a1 +. (Float.Array.unsafe_get xs i *. w0);
          a1 := !a1 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
          a1 := !a1 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
          a1 := !a1 +. (Float.Array.unsafe_get xs (i + 3) *. w3);
          a1 := !a1 +. (Float.Array.unsafe_get xs (i + 4) *. w4);
          let i = i + s in
          a2 := !a2 +. (Float.Array.unsafe_get xs i *. w0);
          a2 := !a2 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
          a2 := !a2 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
          a2 := !a2 +. (Float.Array.unsafe_get xs (i + 3) *. w3);
          a2 := !a2 +. (Float.Array.unsafe_get xs (i + 4) *. w4);
          let i = i + s in
          a3 := !a3 +. (Float.Array.unsafe_get xs i *. w0);
          a3 := !a3 +. (Float.Array.unsafe_get xs (i + 1) *. w1);
          a3 := !a3 +. (Float.Array.unsafe_get xs (i + 2) *. w2);
          a3 := !a3 +. (Float.Array.unsafe_get xs (i + 3) *. w3);
          a3 := !a3 +. (Float.Array.unsafe_get xs (i + 4) *. w4)
        done
      done
    else
      for ic = 0 to in_c - 1 do
        for ky = ky0 to ky1 - 1 do
          let off = (ic * plane) + (ky * in_w) and w = w_oc + (((ic * kh) + ky) * kw) in
          for k = 0 to kn - 1 do
            let w0 = Float.Array.unsafe_get xs (w + k) and i = off + k in
            a0 := !a0 +. (Float.Array.unsafe_get xs (xa + i) *. w0);
            a1 := !a1 +. (Float.Array.unsafe_get xs (xb + i) *. w0);
            a2 := !a2 +. (Float.Array.unsafe_get xs (xc + i) *. w0);
            a3 := !a3 +. (Float.Array.unsafe_get xs (xd + i) *. w0)
          done
        done
      done;
    Float.Array.unsafe_set xs da (relu_if relu !a0);
    Float.Array.unsafe_set xs db (relu_if relu !a1);
    Float.Array.unsafe_set xs dc (relu_if relu !a2);
    Float.Array.unsafe_set xs dd (relu_if relu !a3);
    left := !left - 4
  done;
  while !left > 0 do
    let acc = ref b in
    for ic = 0 to in_c - 1 do
      for ky = ky0 to ky1 - 1 do
        let xrow = c.x + (ic * plane) + (ky * in_w) and wrow = w_oc + (((ic * kh) + ky) * kw) in
        for k = 0 to kn - 1 do
          acc :=
            !acc +. (Float.Array.unsafe_get xs (xrow + k) *. Float.Array.unsafe_get xs (wrow + k))
        done
      done
    done;
    Float.Array.unsafe_set xs c.o (relu_if relu !acc);
    step c ~cols ~s ~row_back ~out_back;
    decr left
  done

(* Encode [n] floats of [xs] from [src] as f32s into the buffer at [va],
   resolving each page once, in ascending VA order. *)
let store_run (s : stream) xs ~src ~va ~n =
  let i = ref 0 in
  while !i < n do
    let a = va + (4 * !i) in
    let page = a land lnot 0xFFF in
    let p = if page = s.sbase then s.spage else s.smiss s a in
    let off = a land 0xFFF in
    let k = imin (n - !i) ((0x1000 - off) / 4) in
    if off + (4 * k) > Bytes.length p then invalid_arg "index out of bounds";
    let d = src + !i in
    for j = 0 to k - 1 do
      set32u_le p (off + (4 * j)) (Int32.bits_of_float (Float.Array.unsafe_get xs (d + j)))
    done;
    i := !i + k
  done

(* Valid taps of output coordinate [o] along an axis of [n] inputs: the
   range [[lo o, hi o)] of kernel indices that land inside the input. *)
let[@inline] tap_lo ~s ~pad o = imax 0 (pad - (o * s))
let[@inline] tap_hi ~s ~pad ~k ~n o = imin k (n + pad - (o * s))


(* One output channel's plane: its rectangles of equal tap ranges, each
   through [rect]. The channel reads [in_c] input planes from [x_base]. *)
let rect_plane ~xs (p : Job_desc.params) ~x_base ~in_c ~w_oc ~bias ~dst =
  let in_h = p.in_h and in_w = p.in_w and kh = p.kh and kw = p.kw in
  let out_h = p.out_h and out_w = p.out_w and s = p.stride and pad = p.pad in
  let plane = in_h * in_w and relu = p.relu in
  (* rows [ya, yb) share a row range, columns [xa, xb) a column range *)
  let ya = ref 0 in
  while !ya < out_h do
    let ky0 = tap_lo ~s ~pad !ya and ky1 = tap_hi ~s ~pad ~k:kh ~n:in_h !ya in
    let yb = ref (!ya + 1) in
    while !yb < out_h && tap_lo ~s ~pad !yb = ky0 && tap_hi ~s ~pad ~k:kh ~n:in_h !yb = ky1 do
      incr yb
    done;
    let xa = ref 0 in
    while !xa < out_w do
      let kx0 = tap_lo ~s ~pad !xa and kx1 = tap_hi ~s ~pad ~k:kw ~n:in_w !xa in
      let xb = ref (!xa + 1) in
      while !xb < out_w && tap_lo ~s ~pad !xb = kx0 && tap_hi ~s ~pad ~k:kw ~n:in_w !xb = kx1 do
        incr xb
      done;
      rect xs ~in_c ~plane ~in_w ~kh ~kw ~s ~ky0 ~ky1 ~kx0 ~kx1 ~w_oc ~bias ~relu
        ~rows:(!yb - !ya) ~cols:(!xb - !xa)
        ~x00:(x_base + ((((!ya * s) - pad) * in_w) + (!xa * s)) - pad)
        ~dst:(dst + (!ya * out_w) + !xa)
        ~out_w;
      xa := !xb
    done;
    ya := !yb
  done

let conv2d_staged ctx (d : Job_desc.t) ~first_oc ~n_oc =
  let p = d.params in
  let plane = p.in_h * p.in_w and per_oc = p.in_c * p.kh * p.kw in
  let out_plane = p.out_h * p.out_w in
  let w_off = p.in_c * plane in
  let b_off = w_off + (n_oc * per_oc) in
  let o_off = b_off + n_oc in
  for r = 0 to n_oc - 1 do
    rect_plane ~xs:st.xs p ~x_base:0 ~in_c:p.in_c ~w_oc:(w_off + (r * per_oc)) ~bias:(b_off + r)
      ~dst:(o_off + (r * out_plane))
  done;
  store_run ctx.c_out st.xs ~src:o_off
    ~va:(Int64.to_int d.output_va + (4 * first_oc * out_plane))
    ~n:(n_oc * out_plane)

(* Stage the job when it fits; false sends it to its per-element loop. *)
let staged ctx d ~first_oc ~n_oc ~w_in_c =
  stageable d ~first_oc ~n_oc ~w_in_c
  &&
  match stage ctx d ~first_oc ~n_oc ~w_in_c with
  | apart -> apart
  | exception _ ->
    clear_pages ();
    false

let conv2d ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  let first_oc, n_oc = partition_range ~total:p.out_c ~part_idx:p.part_idx ~part_count:p.part_count in
  if staged ctx d ~first_oc ~n_oc ~w_in_c:p.in_c then conv2d_staged ctx d ~first_oc ~n_oc
  else conv2d_elements ctx d ~first_oc ~n_oc

let depthwise_elements ctx (d : Job_desc.t) =
  let p = d.params in
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

(* Channel [c] of a depthwise conv is a one-channel conv of input plane
   [c] with weights [c]: [rect] over that plane. *)
let depthwise_staged ctx (d : Job_desc.t) =
  let p = d.params in
  let n = p.out_c and plane = p.in_h * p.in_w and out_plane = p.out_h * p.out_w in
  let taps = p.kh * p.kw in
  let w_off = p.in_c * plane in
  let b_off = w_off + (n * taps) in
  let o_off = b_off + n in
  for c = 0 to n - 1 do
    rect_plane ~xs:st.xs p ~x_base:(c * plane) ~in_c:1 ~w_oc:(w_off + (c * taps)) ~bias:(b_off + c)
      ~dst:(o_off + (c * out_plane))
  done;
  store_run ctx.c_out st.xs ~src:o_off ~va:(Int64.to_int d.output_va) ~n:(n * out_plane)

let depthwise ctx (d : Job_desc.t) =
  let p = d.params in
  check_conv_geometry p;
  if p.in_c <> p.out_c then fail "depthwise needs in_c = out_c";
  if staged ctx d ~first_oc:0 ~n_oc:p.out_c ~w_in_c:1 then depthwise_staged ctx d
  else depthwise_elements ctx d

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

let neg_inf_bits = Int32.to_int (Int32.bits_of_float neg_infinity) land 0xFFFF_FFFF

(* A non-NaN f32's bits as an int ordered as the floats are. *)
let[@inline] key b = if b land 0x8000_0000 = 0 then b else -(b land 0x7FFF_FFFF)

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
        (* [v > best] on the bits: NaNs never win, and [key] orders the
           rest as floats, with -0 equal to +0. The winner is never a NaN,
           so its bits are what [setf] would store. *)
        let best = ref neg_inf_bits and best_key = ref (key neg_inf_bits) in
        for ky = ky0 to ky1 - 1 do
          let iy = (oy * s) + ky - pad in
          for kx = kx0 to kx1 - 1 do
            let ix = (ox * s) + kx - pad in
            let b = getb ctx.c_in (inb + (4 * in_idx c iy ix)) in
            if not (is_nan_bits b) && key b > !best_key then begin
              best := b;
              best_key := key b
            end
          done
        done;
        setb ctx.c_out (ob + (4 * out_idx c oy ox)) !best
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
    let b = getb ctx.c_in (inb + (4 * i)) in
    (* below zero: the sign set on a nonzero magnitude, NaNs excepted *)
    setb ctx.c_out (ob + (4 * i))
      (if is_nan_bits b then round_trip b
       else if b land 0x8000_0000 <> 0 && b land 0x7FFF_FFFF <> 0 then 0
       else b)
  done

let copy ctx (d : Job_desc.t) =
  let inb = Int64.to_int d.input_va and ob = Int64.to_int d.output_va in
  for i = 0 to flat_len d.params - 1 do
    setb ctx.c_out (ob + (4 * i)) (round_trip (getb ctx.c_in (inb + (4 * i))))
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
    setb ctx.c_out (ob + (4 * i)) (round_trip (getb ctx.c_in (inb + (4 * i))))
  done;
  let off = p.in_c * plane in
  for i = 0 to (p.in2_c * plane) - 1 do
    setb ctx.c_out (ob + (4 * (off + i))) (round_trip (getb ctx.c_in2 (in2b + (4 * i))))
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
