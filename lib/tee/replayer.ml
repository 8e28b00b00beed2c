module Device = Grt_gpu.Device
module Mem = Grt_gpu.Mem

exception Rejected of string

type divergence_kind = Value_mismatch | Poll_timeout | Irq_mismatch

let divergence_kind_name = function
  | Value_mismatch -> "value mismatch"
  | Poll_timeout -> "poll timeout"
  | Irq_mismatch -> "IRQ mismatch"

exception
  Divergence of { kind : divergence_kind; index : int; reg : int; expected : int64; got : int64 }

type result = {
  output : float array;
  delay_s : float;
  entries_applied : int;
  reads_verified : int;
  reads_skipped_nondet : int;
  energy_j : float option;
}

let write_slot_floats mem (slot : Recording.slot) values =
  (* A silent [min] here once truncated oversized arrays and left stale
     bytes beyond short ones — either way the replay computes on data the
     caller did not supply. Reject mismatches outright. *)
  let expected = slot.Recording.actual_bytes / 4 in
  if Array.length values <> expected then
    raise
      (Rejected
         (Printf.sprintf "slot %s expects %d floats but got %d" slot.Recording.slot_name
            expected (Array.length values)));
  Mem.write_f32_array mem slot.Recording.pa values

let read_slot_floats mem (slot : Recording.slot) =
  Mem.read_f32_array mem slot.Recording.pa (slot.Recording.actual_bytes / 4)

(* Entries applied, and register reads verified or skipped as
   nondeterministic, in one session. *)
type tally = { mutable applied : int; mutable verified : int; mutable skipped : int }

(* Install a logged memory image. Decoding is [Memsync]'s; a record it
   rejects is a hostile recording, not a GPU divergence. *)
let install store mem logged =
  match Memsync.install store mem logged with
  | Ok pages -> pages
  | Error e -> raise (Rejected ("recording: " ^ Memsync.decode_error_message e))

(* A recorded poll, spun live from iteration [i] ([Gpushim.spin_poll]):
   the iteration that met the condition, or a [Poll_timeout] divergence —
   not a wrong value, the condition never held within the recorded
   iteration budget; [expected] carries the mask. *)
let poll_live gpushim ~reg ~mask ~cond ~max_iters ~spin_ns ~index i =
  let met = Gpushim.spin_poll gpushim ~reg ~mask ~cond ~max_iters ~spin_ns i in
  if met < 0 then
    raise (Divergence { kind = Poll_timeout; index; reg; expected = mask; got = -1L });
  met

(* The recorded interrupt [line] must be the next to fire. *)
let expect_irq gpushim ~index line =
  match Gpushim.wait_irq gpushim ~timeout_ns:4_000_000_000L with
  | Some got when got = line -> ()
  | got ->
    let code l = Int64.of_int (Recording.irq_line_code l) in
    raise
      (Divergence
         {
           kind = Irq_mismatch;
           index;
           reg = -1;
           expected = code line;
           got = (match got with Some l -> code l | None -> -1L);
         })

let apply_entries ~gpushim ~store tally entries =
  let dev = Gpushim.device gpushim and mem = Gpushim.mem gpushim in
  let clock = Device.clock dev in
  Array.iteri
    (fun index entry ->
      tally.applied <- tally.applied + 1;
      Grt_sim.Clock.advance_ns clock Grt_sim.Costs.replayer_step_ns;
      match entry with
      | Recording.Mem_load logged ->
        (* The metastate snapshot for the upcoming interactions. *)
        ignore (install store mem logged)
      | Recording.Reg_write { reg; value } -> Device.write_reg dev reg value
      | Recording.Reg_read { reg; value; verify } ->
        let got = Device.read_reg dev reg in
        if verify then begin
          tally.verified <- tally.verified + 1;
          if not (Int64.equal got value) then
            raise (Divergence { kind = Value_mismatch; index; reg; expected = value; got })
        end
        else tally.skipped <- tally.skipped + 1
      | Recording.Poll { reg; mask; cond; max_iters; spin_ns } ->
        ignore (poll_live gpushim ~reg ~mask ~cond ~max_iters ~spin_ns ~index 0)
      | Recording.Wait_irq { line } -> expect_irq gpushim ~index line)
    entries

(* §3.2 cleanup, exception-safe: a [Divergence] (or any other exception)
   raised mid-session must not leave the GPU isolated and dirty — the next
   session would find it locked to the TEE with stale jobs pending. On the
   success path the body has already reset and released, so the finalizer
   sees [isolated = false] and does nothing; the observable behaviour of a
   clean replay is unchanged. *)
let protect_session gpushim body =
  Fun.protect
    ~finally:(fun () ->
      if Gpushim.isolated gpushim then begin
        (try Gpushim.reset_gpu gpushim with _ -> ());
        Gpushim.release gpushim
      end)
    body

let check_sku dev (rec_t : Recording.t) =
  let sku = Device.sku dev in
  if not (Int64.equal rec_t.Recording.gpu_id sku.Grt_gpu.Sku.gpu_id) then
    raise
      (Rejected
         (Printf.sprintf "recording is for GPU %Lx but this device is %Lx (SKU mismatch)"
            rec_t.Recording.gpu_id sku.Grt_gpu.Sku.gpu_id))

(* One replay session (§3.2): lock the GPU, reset it, install the fresh
   input into the first recording's input slot and each parameter into
   whichever recording declares its slot, [run] the stimuli, read the
   output from the last recording's output slot, and reset and release the
   GPU again — also when [run] raises. [cold] power-cycles first, for
   sessions that reuse one shim. *)
let session ~gpushim ~recordings ~input ~params ?energy ~cold run =
  let dev = Gpushim.device gpushim in
  List.iter (check_sku dev) recordings;
  let clock = Device.clock dev in
  let mem = Gpushim.mem gpushim in
  let energy_start = Option.map Grt_sim.Energy.total_j energy in
  let start_s = Grt_sim.Clock.now_s clock in
  Gpushim.isolate gpushim;
  protect_session gpushim @@ fun () ->
  if cold then Gpushim.power_cycle gpushim;
  Gpushim.reset_gpu gpushim;
  (match Recording.input_slot (List.hd recordings) with
  | Some slot -> write_slot_floats mem slot input
  | None -> raise (Rejected "recording has no input slot"));
  let param_slots = List.concat_map Recording.param_slots recordings in
  List.iter
    (fun (name, values) ->
      match List.find_opt (fun s -> String.equal s.Recording.slot_name name) param_slots with
      | Some slot -> write_slot_floats mem slot values
      | None -> raise (Rejected (Printf.sprintf "unknown parameter slot %s" name)))
    params;
  let tally = { applied = 0; verified = 0; skipped = 0 } in
  run tally;
  let output =
    match Recording.output_slot (List.nth recordings (List.length recordings - 1)) with
    | Some slot -> read_slot_floats mem slot
    | None -> raise (Rejected "recording has no output slot")
  in
  (* Clean up all hardware state before handing the GPU back (§3.2). *)
  Gpushim.reset_gpu gpushim;
  Gpushim.release gpushim;
  {
    output;
    delay_s = Grt_sim.Clock.now_s clock -. start_s;
    entries_applied = tally.applied;
    reads_verified = tally.verified;
    reads_skipped_nondet = tally.skipped;
    energy_j =
      (match (energy, energy_start) with
      | Some e, Some j0 -> Some (Grt_sim.Energy.total_j e -. j0)
      | _ -> None);
  }

let replay_segments ~gpushim ~signing_key ~blobs ~input ~params ?energy () =
  if blobs = [] then raise (Rejected "no segments");
  let recordings =
    List.map
      (fun blob ->
        match Recording.verify_and_parse ~key:signing_key blob with
        | Ok r -> r
        | Error e -> raise (Rejected e))
      blobs
  in
  session ~gpushim ~recordings ~input ~params ?energy ~cold:false (fun tally ->
      let store = Memsync.Store.create () in
      List.iter
        (fun r -> apply_entries ~gpushim ~store tally r.Recording.entries)
        recordings)

(* ---- compiled replay (Replay_prog fast path) ---- *)

(* Execute a poll op. Warm path: charge the clock for the [hint] failed
   iterations the interpreter would have spun through — each one a register
   read plus the recorded spin — then read once. The device model fires
   events by deadline against the virtual clock, so one read at the
   advanced time observes exactly what the interpreter's (hint+1)-th read
   observed, at the same virtual cost. If the GPU is not ready at the
   hinted iteration we fall back to the live spin from hint+1, which again
   matches the interpreter's clock arithmetic exactly; either way the
   first-success iteration is re-learned for the next execution. *)
let exec_poll gpushim ~clock ~dev ~reg ~mask ~cond ~max_iters ~spin_ns ~index ~hint =
  if hint > 0 && hint < max_iters then begin
    let spin = Int64.to_int spin_ns in
    Grt_sim.Clock.advance_int clock (hint * (spin + Int64.to_int Grt_sim.Costs.mmio_access_ns));
    if Grt_gpu.Regs.poll_met cond ~mask (Device.read_reg dev reg) then hint
    else begin
      Grt_sim.Clock.advance_int clock spin;
      poll_live gpushim ~reg ~mask ~cond ~max_iters ~spin_ns ~index (hint + 1)
    end
  end
  else poll_live gpushim ~reg ~mask ~cond ~max_iters ~spin_ns ~index 0

(* Install a memory image an op installed before: warm sessions re-install
   the same image into the same memory, and a page whose generation is
   unchanged since the op's own last install there provably still holds
   it, so its copy is skipped. It is still marked dirty, as the copy would
   have marked it: the next cache flush costs what the interpreter's does.
   [stamps] are the target memory and the per-page generations right after
   that install; the stamps to keep are returned (the same value when the
   memory is the same). *)
let install_image mem pages stamps =
  match stamps with
  | Some (m, gens) when m == mem ->
    for k = 0 to Array.length pages - 1 do
      let pfn, data = pages.(k) in
      let i = Int64.to_int pfn in
      if Mem.page_gen_at mem i <> gens.(k) then begin
        Mem.set_page mem pfn data;
        gens.(k) <- Mem.page_gen_at mem i
      end
      else Mem.mark_dirty mem i
    done;
    stamps
  | _ ->
    Some
      ( mem,
        Array.map
          (fun (pfn, data) ->
            Mem.set_page mem pfn data;
            Mem.page_gen_at mem (Int64.to_int pfn))
          pages )

let exec_prog ~gpushim (prog : Replay_prog.t) tally =
  let open Replay_prog in
  let dev = Gpushim.device gpushim and mem = Gpushim.mem gpushim in
  let clock = Device.clock dev in
  (* A live store is needed only while some dynamic load is still uncached;
     once every decode is memoized, replays skip content-store bookkeeping
     entirely. While it exists, every entry that would have fed the
     interpreter's store must feed this one, or a later hash reference
     could dangle. *)
  let store = if prog.uncached_dynamic > 0 then Some (Memsync.Store.create ()) else None in
  let step () =
    tally.applied <- tally.applied + 1;
    Grt_sim.Clock.advance_ns clock Grt_sim.Costs.replayer_step_ns
  in
  Array.iter
    (fun (g : group) ->
      if not g.checked then begin
        let c = g.chunk in
        if not (Recording.verify_chunk c) then
          raise
            (Rejected
               (Printf.sprintf "recording: chunk at entry %d failed verification"
                  c.Recording.chunk_first));
        g.checked <- true
      end;
      Array.iter
        (fun op ->
          match op with
          | Write_run { regs; values } ->
            for k = 0 to Array.length regs - 1 do
              step ();
              Device.write_reg dev regs.(k) values.(k)
            done
          | Read { reg; value; verify; index } ->
            step ();
            let got = Device.read_reg dev reg in
            if verify then begin
              tally.verified <- tally.verified + 1;
              if not (Int64.equal got value) then
                raise (Divergence { kind = Value_mismatch; index; reg; expected = value; got })
            end
            else tally.skipped <- tally.skipped + 1
          | Poll p ->
            step ();
            p.hint <-
              exec_poll gpushim ~clock ~dev ~reg:p.reg ~mask:p.mask ~cond:p.cond
                ~max_iters:p.max_iters ~spin_ns:p.spin_ns ~index:p.index ~hint:p.hint
          | Wait_irq { line; index } ->
            step ();
            expect_irq gpushim ~index line
          | Load_static l ->
            step ();
            (if l.learn then
               match store with
               | Some s -> Array.iter (fun (_, data) -> Memsync.Store.learn s data) l.pages
               | None -> ());
            l.stamps <- install_image mem l.pages l.stamps
          | Load_dynamic d -> (
            step ();
            match d.cached with
            | Some pages ->
              (match store with
              | Some s -> Array.iter (fun (_, data) -> Memsync.Store.learn s data) pages
              | None -> ());
              d.stamps <- install_image mem pages d.stamps
            | None ->
              let s =
                match store with Some s -> s | None -> assert false (* counted as uncached *)
              in
              let pages = Array.of_list (install s mem d.logged) in
              d.cached <- Some pages;
              prog.uncached_dynamic <- prog.uncached_dynamic - 1;
              d.stamps <-
                Some
                  (mem, Array.map (fun (pfn, _) -> Mem.page_gen_at mem (Int64.to_int pfn)) pages)))
        g.ops)
    prog.groups

(* Batch sessions reuse one shim: power-cycle back to the pristine state
   the recording was made against (free on a fresh shim), then run the same
   recorded-cost soft reset the interpreter runs. *)
let replay_compiled ~gpushim ~prog ~input ~params ?energy () =
  session ~gpushim ~recordings:[ Replay_prog.source prog ] ~input ~params ?energy ~cold:true
    (exec_prog ~gpushim prog)
