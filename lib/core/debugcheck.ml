module Regs = Grt_gpu.Regs

type divergence =
  | Value_differs of { index : int; reg : int; reference : int64; subject : int64 }
  | Structure_differs of { index : int; reference : string; subject : string }
  | Subject_truncated of { at : int }
  | Subject_longer of { extra : int }

let entry_shape = function
  | Recording.Reg_write { reg; _ } -> Printf.sprintf "write %s" (Regs.name reg)
  | Recording.Reg_read { reg; _ } -> Printf.sprintf "read %s" (Regs.name reg)
  | Recording.Poll { reg; _ } -> Printf.sprintf "poll %s" (Regs.name reg)
  | Recording.Wait_irq { line } -> Printf.sprintf "wait_irq %d" (Recording.irq_line_code line)
  | Recording.Mem_load { Memsync.tagged; records } ->
    Printf.sprintf "mem_load%s (%d pages)" (if tagged then "_enc" else "") (List.length records)

let pp_divergence ppf = function
  | Value_differs { index; reg; reference; subject } ->
    Format.fprintf ppf "entry %d: %s read %#Lx on the reference device but %#Lx on the subject"
      index (Regs.name reg) reference subject
  | Structure_differs { index; reference; subject } ->
    Format.fprintf ppf "entry %d: reference performs '%s' but subject performs '%s'" index
      reference subject
  | Subject_truncated { at } -> Format.fprintf ppf "subject log ends early at entry %d" at
  | Subject_longer { extra } -> Format.fprintf ppf "subject log has %d extra entries" extra

type report = {
  compared : int;
  matching : int;
  first_divergence : divergence option;
  value_divergences : int;
  divergent_regs : (int * int) list;
}

(* Two entries "structurally" agree when they are the same kind of
   interaction on the same register; values of verified reads must also
   agree. Writes carry driver-computed values which may legitimately embed
   nondeterministic inputs (the flush id in the job config), so only exact
   structural identity is required of them when values differ on
   nondet-tainted registers. *)
let compare_entry index a b =
  match (a, b) with
  | ( Recording.Reg_read { reg = r1; value = v1; verify = true },
      Recording.Reg_read { reg = r2; value = v2; verify = true } )
    when r1 = r2 ->
    if Int64.equal v1 v2 then Ok ()
    else Error (Value_differs { index; reg = r1; reference = v1; subject = v2 })
  | Recording.Reg_read { reg = r1; verify = false; _ }, Recording.Reg_read { reg = r2; verify = false; _ }
    when r1 = r2 ->
    Ok ()
  | Recording.Reg_write { reg = r1; value = v1 }, Recording.Reg_write { reg = r2; value = v2 }
    when r1 = r2 ->
    (* Job-config writes embed the nondeterministic flush id (§7.3). *)
    if Int64.equal v1 v2 || r1 = Regs.js_config 0 || r1 = Regs.js_config_next 0 then Ok ()
    else Error (Value_differs { index; reg = r1; reference = v1; subject = v2 })
  | Recording.Poll { reg = r1; _ }, Recording.Poll { reg = r2; _ } when r1 = r2 -> Ok ()
  | Recording.Wait_irq { line = l1 }, Recording.Wait_irq { line = l2 } when l1 = l2 -> Ok ()
  | Recording.Mem_load a, Recording.Mem_load b when a.Memsync.tagged = b.Memsync.tagged -> Ok ()
  | _ ->
    Error (Structure_differs { index; reference = entry_shape a; subject = entry_shape b })

let compare_logs ~reference ~subject =
  let ra = reference.Recording.entries and sa = subject.Recording.entries in
  let n = min (Array.length ra) (Array.length sa) in
  let matching = ref 0 in
  let first = ref None in
  let value_divs = ref 0 in
  let by_reg = Hashtbl.create 8 in
  for i = 0 to n - 1 do
    match compare_entry i ra.(i) sa.(i) with
    | Ok () -> incr matching
    | Error d ->
      if !first = None then first := Some d;
      (match d with
      | Value_differs { reg; _ } ->
        incr value_divs;
        Hashtbl.replace by_reg reg (1 + Option.value ~default:0 (Hashtbl.find_opt by_reg reg))
      | _ -> ())
  done;
  let first =
    match !first with
    | Some _ as d -> d
    | None ->
      if Array.length sa < Array.length ra then Some (Subject_truncated { at = Array.length sa })
      else if Array.length sa > Array.length ra then
        Some (Subject_longer { extra = Array.length sa - Array.length ra })
      else None
  in
  let divergent_regs =
    Hashtbl.fold (fun reg c acc -> (reg, c) :: acc) by_reg []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  {
    compared = n;
    matching = !matching;
    first_divergence = first;
    value_divergences = !value_divs;
    divergent_regs;
  }

let healthy r = r.first_divergence = None

let pp_report ppf r =
  if healthy r then
    Format.fprintf ppf "healthy: %d/%d interactions match the reference" r.matching r.compared
  else begin
    Format.fprintf ppf "DIVERGENT: %d/%d interactions match; %d differing register values@\n"
      r.matching r.compared r.value_divergences;
    (match r.first_divergence with
    | Some d -> Format.fprintf ppf "first: %a@\n" pp_divergence d
    | None -> ());
    List.iteri
      (fun i (reg, count) ->
        if i < 5 then Format.fprintf ppf "  %-24s %d divergent reads@\n" (Regs.name reg) count)
      r.divergent_regs
  end
