let pp_bytes ppf b =
  let n = Bytes.length b in
  let lines = (n + 15) / 16 in
  for line = 0 to lines - 1 do
    let base = line * 16 in
    Format.fprintf ppf "%08x  " base;
    for i = 0 to 15 do
      let off = base + i in
      if off < n then Format.fprintf ppf "%02x " (Char.code (Bytes.get b off))
      else Format.fprintf ppf "   ";
      if i = 7 then Format.fprintf ppf " "
    done;
    Format.fprintf ppf " |";
    for i = 0 to 15 do
      let off = base + i in
      if off < n then begin
        let c = Bytes.get b off in
        Format.fprintf ppf "%c" (if c >= ' ' && c < '\x7f' then c else '.')
      end
    done;
    Format.fprintf ppf "|@\n"
  done

let size_to_string n =
  let f = float_of_int n in
  if f >= 1_073_741_824. then Printf.sprintf "%.2f GB" (f /. 1_073_741_824.)
  else if f >= 1_048_576. then Printf.sprintf "%.2f MB" (f /. 1_048_576.)
  else if f >= 1024. then Printf.sprintf "%.1f KB" (f /. 1024.)
  else Printf.sprintf "%d B" n
