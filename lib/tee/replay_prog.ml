(* Replay programs: a recording lowered once into a flat preprocessed form
   so batch replays skip parse/decode entirely (ROADMAP item 2).

   The interpreter in [Replayer.apply_entries] re-walks the raw entry log —
   re-matching constructors, re-decoding memsync wire records, re-spinning
   polls from iteration zero — on every replay. This pass runs once per
   recording and produces:

   - fused runs of consecutive register writes (one op, k stimuli);
   - polls carrying the first-success iteration learned on the first
     execution, so later replays charge the skipped spin time in one clock
     advance and read the register once (falling back to a live spin, and
     re-learning the hint, when the GPU is not ready at the hinted
     iteration);
   - memory images decoded at compile time, through [Memsync.decode_record],
     wherever the wire records are position-independent (raw,
     compressed-raw, and hash references that resolve against content an
     earlier record carried); delta-encoded
     records depend on the live memory and stay dynamic, decoded on the
     first execution and memoized — sound because the metastate they
     patch is input-independent (§2.3).

   Verification is streaming: [of_blob] checks only the signed header; each chunk's hash is checked by the executor just
   before that chunk's ops run (and never again for the same program). *)

type op =
  | Write_run of { regs : int array; values : int64 array }
  | Read of { reg : int; value : int64; verify : bool; index : int }
  | Poll of {
      reg : int;
      mask : int64;
      cond : Grt_gpu.Regs.poll_cond;
      max_iters : int;
      spin_ns : int64;
      index : int;
      mutable hint : int;  (** first-success iteration of the last execution; -1 = unknown *)
    }
  | Wait_irq of { line : Grt_gpu.Device.irq_line; index : int }
  | Load_static of {
      pages : (int64 * bytes) array;
      learn : bool;
      mutable stamps : (Grt_gpu.Mem.t * int array) option;
    }
      (** memory image precomputed at compile; [learn] feeds the bodies to
          the execution store (tagged images do, untagged ones do not) *)
  | Load_dynamic of {
      logged : Memsync.logged;
      index : int;
      mutable cached : (int64 * bytes) array option;
      mutable stamps : (Grt_gpu.Mem.t * int array) option;
    }

type group = {
  ops : op array;
  chunk : Recording.chunk;
  mutable checked : bool;
}

type stats = {
  entries : int;
  ops : int;
  fused_writes : int;  (** register writes absorbed into multi-write runs *)
  static_pages : int;  (** memory-image pages decoded at compile time *)
  dynamic_loads : int;  (** tagged Mem_load entries that must decode live once *)
  polls : int;
}

type t = {
  source : Recording.t;
  root : int64;
  groups : group array;
  stats : stats;
  mutable uncached_dynamic : int;
}

let source t = t.source
let root t = t.root
let stats t = t.stats

(* A record's page decoded at compile time, or [None] when only the live
   replay can decode it: delta records patch whatever the page holds at
   that point of the replay, and a hash reference may name content only a
   delta produced. A record that can never decode fails the compile. *)
let static_page store pfn enc body =
  match Memsync.decode_record store None pfn enc body with
  | Ok page -> Some page
  | Error (Memsync.Needs_memory | Memsync.Unknown_hash _) -> None
  | Error (Memsync.Malformed _ as e) -> failwith (Memsync.decode_error_message e)

(* The compile-time store mirrors what the executor's store will have
   learned: every statically decodable tagged body. It can only ever hold a
   subset of the execution store (delta results are unknown here), so a
   hash reference it resolves is guaranteed to resolve identically at run
   time, and one it cannot resolve is conservatively classified dynamic.
   Untagged records are raw, so they always decode here (decoding only
   checks their size). *)
let lower_mem_load store ~index (logged : Memsync.logged) =
  let decoded =
    List.map (fun (pfn, enc, body) -> (pfn, static_page store pfn enc body)) logged.records
  in
  let learn = logged.tagged in
  if learn then List.iter (function _, Some b -> Memsync.Store.learn store b | _, None -> ()) decoded;
  if List.for_all (fun (_, d) -> d <> None) decoded then
    Load_static
      {
        pages = Array.of_list (List.map (fun (pfn, d) -> (pfn, Option.get d)) decoded);
        learn;
        stamps = None;
      }
  else Load_dynamic { logged; index; cached = None; stamps = None }

let lower_range store entries ~first ~count =
  let ops = ref [] in
  let stop = first + count in
  let i = ref first in
  while !i < stop do
    (match entries.(!i) with
    | Recording.Reg_write _ ->
      let j = ref !i in
      while
        !j < stop && match entries.(!j) with Recording.Reg_write _ -> true | _ -> false
      do
        incr j
      done;
      let n = !j - !i in
      let regs = Array.make n 0 and values = Array.make n 0L in
      for k = 0 to n - 1 do
        match entries.(!i + k) with
        | Recording.Reg_write { reg; value } ->
          regs.(k) <- reg;
          values.(k) <- value
        | _ -> assert false
      done;
      ops := Write_run { regs; values } :: !ops;
      i := !j - 1
    | Recording.Reg_read { reg; value; verify } -> ops := Read { reg; value; verify; index = !i } :: !ops
    | Recording.Poll { reg; mask; cond; max_iters; spin_ns } ->
      ops := Poll { reg; mask; cond; max_iters; spin_ns; index = !i; hint = -1 } :: !ops
    | Recording.Wait_irq { line } -> ops := Wait_irq { line; index = !i } :: !ops
    | Recording.Mem_load logged -> ops := lower_mem_load store ~index:!i logged :: !ops);
    incr i
  done;
  Array.of_list (List.rev !ops)

let stats_of groups ~entries =
  let ops = ref 0 and fused = ref 0 and static_pages = ref 0 and dyn = ref 0 and polls = ref 0 in
  Array.iter
    (fun (g : group) ->
      ops := !ops + Array.length g.ops;
      Array.iter
        (function
          | Write_run { regs; _ } -> if Array.length regs > 1 then fused := !fused + Array.length regs - 1
          | Load_static { pages; _ } -> static_pages := !static_pages + Array.length pages
          | Load_dynamic _ -> incr dyn
          | Poll _ -> incr polls
          | Read _ | Wait_irq _ -> ())
        g.ops)
    groups;
  { entries; ops = !ops; fused_writes = !fused; static_pages = !static_pages; dynamic_loads = !dyn; polls = !polls }

let compile (v : Recording.verified) =
  let rec_t = v.Recording.vrec in
  let entries = rec_t.Recording.entries in
  let store = Memsync.Store.create () in
  let groups =
    Array.map
      (fun c ->
        {
          ops = lower_range store entries ~first:c.Recording.chunk_first ~count:c.Recording.chunk_count;
          chunk = c;
          checked = false;
        })
      v.Recording.vchunks
  in
  let stats = stats_of groups ~entries:(Array.length entries) in
  { source = rec_t; root = v.Recording.vroot; groups; stats; uncached_dynamic = stats.dynamic_loads }

(* Static lowering decodes page records before any chunk hash is checked,
   so a tampered or malformed body surfaces here as [Failure]: report it as
   a typed error like a bad header. *)
let of_blob ~key blob =
  match Recording.parse_signed ~key blob with
  | Error _ as e -> e
  | Ok v -> ( try Ok (compile v) with Failure msg -> Error ("replay_prog: " ^ msg))
