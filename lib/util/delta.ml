(* Wire format: varint total_len, varint span_count, then per span:
   varint offset-delta (from end of previous span), varint length, raw
   bytes. Adjacent changes closer than [merge_gap] bytes are merged into one
   span to amortize header overhead. *)

let merge_gap = 8

let scan_spans old_ fresh =
  let n = Bytes.length old_ in
  let spans = ref [] in
  let i = ref 0 in
  while !i < n do
    (* Fast path over unchanged content: a 64-bit word equality covers its
       eight byte positions, so the byte-state machine below only ever runs
       in the neighborhood of an actual difference. Span boundaries are
       decided by the byte loop exactly as before. *)
    while
      !i + 8 <= n && Int64.equal (Bytes.get_int64_le old_ !i) (Bytes.get_int64_le fresh !i)
    do
      i := !i + 8
    done;
    if !i < n && Bytes.get old_ !i <> Bytes.get fresh !i then begin
      let start = !i in
      let last_change = ref !i in
      incr i;
      let stop = ref false in
      while (not !stop) && !i < n do
        if Bytes.get old_ !i <> Bytes.get fresh !i then begin
          last_change := !i;
          incr i
        end
        else if !i - !last_change < merge_gap then incr i
        else stop := true
      done;
      spans := (start, !last_change - start + 1) :: !spans
    end
    else incr i
  done;
  List.rev !spans

let diff ~old_ ~fresh =
  if Bytes.length old_ <> Bytes.length fresh then
    invalid_arg "Delta.diff: length mismatch";
  let spans = scan_spans old_ fresh in
  let out = Byte_buf.create () in
  Byte_buf.add_varint out (Bytes.length old_);
  Byte_buf.add_varint out (List.length spans);
  let prev_end = ref 0 in
  List.iter
    (fun (off, len) ->
      Byte_buf.add_varint out (off - !prev_end);
      Byte_buf.add_varint out len;
      Byte_buf.add_sub out fresh ~pos:off ~len;
      prev_end := off + len)
    spans;
  Byte_buf.contents out

let apply_in_place ~page ~delta =
  let r = Byte_buf.Reader.of_bytes delta in
  let total = Byte_buf.Reader.varint r in
  if total <> Bytes.length page then failwith "Delta.apply: base length mismatch";
  let count = Byte_buf.Reader.varint r in
  let pos = ref 0 in
  for _ = 1 to count do
    let gap = Byte_buf.Reader.varint r in
    let len = Byte_buf.Reader.varint r in
    if gap > total - !pos || len > total - !pos - gap then
      failwith "Delta.apply: span outside the base";
    pos := !pos + gap;
    let at = Byte_buf.Reader.pos r in
    Byte_buf.Reader.skip r len;
    Bytes.blit delta at page !pos len;
    pos := !pos + len
  done

let apply ~old_ ~delta =
  let fresh = Bytes.copy old_ in
  apply_in_place ~page:fresh ~delta;
  fresh
