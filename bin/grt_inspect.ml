(* grt-inspect: examine a saved recording — identity, slots, interaction
   histogram — diff two recordings for remote debugging (§3.2), or render
   the phase timeline of a session report.

     dune exec bin/grt_inspect.exe -- mnist.grt
     dune exec bin/grt_inspect.exe -- --diff healthy.grt suspect.grt
     dune exec bin/grt_inspect.exe -- --timeline mnist-report.json
     dune exec bin/grt_inspect.exe -- --cache fleet-cache.json
*)

open Cmdliner

let file_arg =
  let doc = "Recording file to inspect." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let diff_arg =
  let doc = "Compare $(docv) (the subject) against FILE (the reference)." in
  Arg.(value & opt (some string) None & info [ "d"; "diff" ] ~docv:"SUBJECT" ~doc)

let timeline_arg =
  let doc =
    "Render the session report $(docv) (written by grt-record --report): per-phase time \
     attribution and latency-histogram quantiles."
  in
  Arg.(value & opt (some string) None & info [ "t"; "timeline" ] ~docv:"REPORT" ~doc)

let entries_arg =
  let doc = "Dump the first $(docv) entries." in
  Arg.(value & opt int 0 & info [ "e"; "entries" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Render the recording-cache listing $(docv) (written by grt-fleet --json \
     or --cache-out)."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"CACHE" ~doc)

let fleet_arg =
  let doc =
    "Render the fleet report $(docv) (written by grt-fleet --report): \
     service headline, SLO quantile rollups, hottest keys and memo-cache \
     profiles."
  in
  Arg.(value & opt (some string) None & info [ "fleet" ] ~docv:"REPORT" ~doc)

exception Unreadable of string

let read_file path =
  match open_in_bin path with
  | exception Sys_error e -> raise (Unreadable e)
  | ic ->
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    b

(* The verified recording and the byte length of the blob it came from. *)
let load path =
  let blob = read_file path in
  match Grt.Recording.verify_and_parse ~key:Grt.Orchestrate.cloud_signing_key blob with
  | Ok r -> Ok (r, Bytes.length blob)
  | Error e -> Error (path ^ ": " ^ e)

let pp_entry ppf = function
  | Grt.Recording.Reg_write { reg; value } ->
    Format.fprintf ppf "write %-22s <- %#Lx" (Grt_gpu.Regs.name reg) value
  | Grt.Recording.Reg_read { reg; value; verify } ->
    Format.fprintf ppf "read  %-22s = %#Lx%s" (Grt_gpu.Regs.name reg) value
      (if verify then "" else "  (nondet, unverified)")
  | Grt.Recording.Poll { reg; mask; cond; _ } ->
    Format.fprintf ppf "poll  %-22s until %#Lx %s" (Grt_gpu.Regs.name reg) mask
      (match cond with Grt_gpu.Regs.Bits_set -> "set" | Grt_gpu.Regs.Bits_clear -> "clear")
  | Grt.Recording.Wait_irq { line } ->
    Format.fprintf ppf "wait-irq line %d" (Grt.Recording.irq_line_code line)
  | Grt.Recording.Mem_load { Grt.Memsync.tagged; records } ->
    let n = List.length records in
    if tagged then
      let body_bytes =
        List.fold_left (fun acc (_, _, body) -> acc + Bytes.length body) 0 records
      in
      Format.fprintf ppf "mem-load %d tagged pages (%s encoded: %s)" n
        (Grt_util.Hexdump.size_to_string body_bytes)
        (String.concat ","
           (List.map (fun (_, enc, _) -> Grt.Memsync.encoding_name enc) records))
    else
      Format.fprintf ppf "mem-load %d pages (%s)" n
        (Grt_util.Hexdump.size_to_string (n * Grt_gpu.Mem.page_size))

let inspect path dump_n =
  match load path with
  | Error e -> `Error (false, e)
  | Ok (r, size) ->
    let count k = Grt.Recording.count_entries r k in
    Printf.printf "recording: %s\n" path;
    Printf.printf "  workload:   %s\n" r.Grt.Recording.workload;
    (match Grt_gpu.Sku.find_by_id r.Grt.Recording.gpu_id with
    | Some sku -> Printf.printf "  GPU:        %s (%Lx)\n" sku.Grt_gpu.Sku.name r.Grt.Recording.gpu_id
    | None -> Printf.printf "  GPU:        unknown (%Lx)\n" r.Grt.Recording.gpu_id);
    Printf.printf "  size:       %s\n"
      (Grt_util.Hexdump.size_to_string size);
    Printf.printf "  entries:    %d (writes %d, reads %d, polls %d, irqs %d, pages %d)\n"
      (Array.length r.Grt.Recording.entries)
      (count `Writes) (count `Reads) (count `Polls) (count `Irqs) (count `Mem_pages);
    Printf.printf "  slots:\n";
    List.iter
      (fun s ->
        Printf.printf "    %-8s %-10s va=%#Lx %s (model %s)\n"
          (match s.Grt.Recording.kind with
          | `Input -> "input"
          | `Output -> "output"
          | `Param -> "param")
          s.Grt.Recording.slot_name s.Grt.Recording.va
          (Grt_util.Hexdump.size_to_string s.Grt.Recording.actual_bytes)
          (Grt_util.Hexdump.size_to_string s.Grt.Recording.model_bytes))
      r.Grt.Recording.slots;
    if dump_n > 0 then begin
      Printf.printf "  first %d entries:\n" dump_n;
      Array.iteri
        (fun i e -> if i < dump_n then Format.printf "    %4d  %a@." i pp_entry e)
        r.Grt.Recording.entries
    end;
    `Ok ()

(* A session report must pass the schema check; its optional sections
   (histograms, phases) print as "n/a" when the session was not observed. A
   fleet report passed by mistake is dispatched to the fleet view. *)
let timeline path =
  match Grt_util.Json.parse (Bytes.to_string (read_file path)) with
  | Error e -> `Error (false, path ^ ": " ^ e)
  | Ok json -> (
    let schema_of j =
      match j with
      | Grt_util.Json.Obj fields -> (
        match List.assoc_opt "schema" fields with
        | Some (Grt_util.Json.Str s) -> Some s
        | _ -> None)
      | _ -> None
    in
    if schema_of json = Some Grt.Report.fleet_schema then
      match Grt.Report.validate_fleet json with
      | Error e -> `Error (false, path ^ ": " ^ e)
      | Ok () ->
        Format.printf "%a" Grt.Report.pp_fleet json;
        `Ok ()
    else
      match Grt.Report.validate json with
      | Error e -> `Error (false, path ^ ": " ^ e)
      | Ok () ->
        Format.printf "%a" Grt.Report.pp_timeline json;
        `Ok ())

let fleet path =
  match Grt_util.Json.parse (Bytes.to_string (read_file path)) with
  | Error e -> `Error (false, path ^ ": " ^ e)
  | Ok json -> (
    match Grt.Report.validate_fleet json with
    | Error e -> `Error (false, path ^ ": " ^ e)
    | Ok () ->
      Format.printf "%a" Grt.Report.pp_fleet json;
      `Ok ())

(* Cache listings come from grt-fleet as {"fleet": ..., "cache": [rows]} or
   {"cache": [rows]}; render the rows as the same table grt-fleet prints. *)
let cache_listing path =
  let module Json = Grt_util.Json in
  match Json.parse (Bytes.to_string (read_file path)) with
  | Error e -> `Error (false, path ^ ": " ^ e)
  | Ok json -> (
    let rows =
      match json with
      | Json.Obj fields -> (
        match List.assoc_opt "cache" fields with
        | Some (Json.Arr rows) -> Some rows
        | _ -> None)
      | Json.Arr rows -> Some rows
      | _ -> None
    in
    match rows with
    | None -> `Error (false, path ^ ": no \"cache\" array found")
    | Some rows ->
      let str field row =
        match row with
        | Json.Obj fields -> (
          match List.assoc_opt field fields with Some (Json.Str s) -> s | _ -> "?")
        | _ -> "?"
      in
      let num field row =
        match row with
        | Json.Obj fields -> (
          match List.assoc_opt field fields with
          | Some (Json.Num n) -> int_of_float n
          | _ -> 0)
        | _ -> 0
      in
      let resident row =
        match row with
        | Json.Obj fields -> (
          match List.assoc_opt "resident" fields with
          | Some (Json.Bool b) -> b
          | _ -> false)
        | _ -> false
      in
      Printf.printf "recording cache: %s (%d keys)\n" path (List.length rows);
      Printf.printf "%-52s %8s %10s %6s %5s %6s\n" "key (net/SKU/runtime/mode)"
        "resident" "blob(B)" "hits" "rec" "evict";
      List.iter
        (fun row ->
          Printf.printf "%-52s %8s %10d %6d %5d %6d\n" (str "label" row)
            (if resident row then "yes" else "-")
            (num "blob_bytes" row) (num "hits" row) (num "recordings" row)
            (num "evictions" row))
        rows;
      `Ok ())

let rec run path diff timeline_path dump_n cache_path fleet_path =
  try run_inner path diff timeline_path dump_n cache_path fleet_path
  with Unreadable e -> `Error (false, e)

and run_inner path diff timeline_path dump_n cache_path fleet_path =
  match (fleet_path, cache_path, timeline_path, path, diff) with
  | Some report, _, _, _, _ -> fleet report
  | None, Some cache, _, _, _ -> cache_listing cache
  | None, None, Some report, _, _ -> timeline report
  | None, None, None, None, _ ->
    `Error
      ( true,
        "a recording FILE (or --timeline REPORT, --fleet REPORT, or --cache CACHE) is required" )
  | None, None, None, Some path, None -> inspect path dump_n
  | None, None, None, Some path, Some subject_path -> (
    match (load path, load subject_path) with
    | Error e, _ | _, Error e -> `Error (false, e)
    | Ok (reference, _), Ok (subject, _) ->
      let report = Grt.Debugcheck.compare_logs ~reference ~subject in
      Format.printf "%a@." Grt.Debugcheck.pp_report report;
      if Grt.Debugcheck.healthy report then `Ok () else `Error (false, "logs diverge"))

let cmd =
  let doc = "inspect or diff GR-T recordings, or render session/fleet reports" in
  let info = Cmd.info "grt-inspect" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      ret
        (const run $ file_arg $ diff_arg $ timeline_arg $ entries_arg $ cache_arg $ fleet_arg))

let () = exit (Cmd.eval cmd)
