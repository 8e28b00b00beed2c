(* The replay compiler and its streaming verifier: differential equivalence
   against the interpreted replayer (property-tested and across the full
   model zoo), streaming chunk-tamper detection, hostile blobs rejected
   without raising or over-allocating, replay attestation tokens, and the
   bench-row JSON schema. *)

module Orchestrate = Grt.Orchestrate
module Replayer = Grt.Replayer
module Replay_prog = Grt.Replay_prog
module Recording = Grt.Recording
module Mode = Grt.Mode
module E = Grt.Experiments
module Attestation = Grt_tee.Attestation
module Network = Grt_mlfw.Network
module Zoo = Grt_mlfw.Zoo
module Runner = Grt_mlfw.Runner
module Profile = Grt_net.Profile
module Sku = Grt_gpu.Sku
module Json = Grt_util.Json

let check = Alcotest.check

let sku = Sku.g71_mp8

let record ?(net = Zoo.mnist) () =
  Orchestrate.record ~profile:Profile.wifi ~mode:Mode.Ours_mds ~sku ~net ~seed:42L ()

let mnist_recording = lazy (record ())
let zoo_recordings = lazy (List.map (fun net -> (net, record ~net ())) Zoo.all)

let replay_both ?(blob = (Lazy.force mnist_recording).Orchestrate.blob) ~net ~input_seed () =
  let plan = Network.expand net in
  let input = Runner.input_values plan ~seed:input_seed in
  let params = Runner.weight_values plan ~seed:42L in
  let interp = Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:input_seed () in
  let prog = Orchestrate.compile_recording ~blob () in
  let compiled = Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:input_seed () in
  (interp.Orchestrate.r, compiled.Orchestrate.r)

(* Property: for any fresh input, the compiled path is indistinguishable
   from the interpreted one — same output bits, same entry/verification
   counts. The input seed is the whole state space of a replay. *)
let compiled_equals_interpreted_prop =
  QCheck.Test.make ~count:12 ~name:"compiled replay == interpreted replay (any input)"
    QCheck.(map Int64.of_int small_int)
    (fun input_seed ->
      let i, c = replay_both ~net:Zoo.mnist ~input_seed () in
      i.Replayer.output = c.Replayer.output
      && i.Replayer.entries_applied = c.Replayer.entries_applied
      && i.Replayer.reads_verified = c.Replayer.reads_verified
      && i.Replayer.reads_skipped_nondet = c.Replayer.reads_skipped_nondet)

(* A replay on a client of its own, with the virtual nanoseconds it took
   (the span [delay_s] measures) and its energy from a zeroed meter: a
   later replay's [delay_s] and [energy_j] are differences of larger
   totals, so they can round differently from a first replay's. *)
let timed (g, clock, energy) replay =
  Grt_sim.Energy.reset energy;
  let t0 = Grt_sim.Clock.now_ns clock in
  let r : Replayer.result = replay g energy in
  (r, Int64.sub (Grt_sim.Clock.now_ns clock) t0)

(* The recording with each poll for the clean-caches interrupt turned into
   a wait on the GPU interrupt line. Polls read at their learned iteration,
   so a flush that ends early goes unseen; a wait lasts exactly as long as
   the flush, whose length is set by the pages dirtied since the last one.
   A warm compiled replay that skips re-copying unchanged pages must still
   leave them dirty, or it finishes early. *)
let waiting_on_flushes (o : Orchestrate.record_outcome) =
  let rec_t = o.Orchestrate.recording in
  let entries =
    Array.map
      (function
        | Recording.Poll { reg; mask; _ }
          when reg = Grt_gpu.Regs.gpu_irq_rawstat
               && Int64.equal mask Grt_gpu.Regs.irq_clean_caches_completed ->
          Recording.Wait_irq { line = Grt_gpu.Device.Gpu_irq }
        | e -> e)
      rec_t.Recording.entries
  in
  Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries }

let compiled_bit_identical_all_nets () =
  (* The acceptance bar: bit-identical on every network in the zoo, and the
     same virtual delay and energy, for the first compiled replay on a
     client and for a warm one after it; also when the replay waits out
     each cache flush. *)
  List.iter
    (fun (net, o) ->
      let plan = Network.expand net in
      let input = Runner.input_values plan ~seed:7L in
      let params = Runner.weight_values plan ~seed:42L in
      List.iter
        (fun (variant, blob) ->
          let name = net.Network.name ^ variant in
          let i, i_ns =
            timed (Orchestrate.replay_gpushim ~sku ~seed:7L ()) (fun gpushim energy ->
                Replayer.replay_segments ~gpushim ~signing_key:Orchestrate.cloud_signing_key
                  ~blobs:[ blob ] ~input ~params ~energy ())
          in
          let prog = Orchestrate.compile_recording ~blob () in
          let client = Orchestrate.replay_gpushim ~sku ~seed:7L () in
          List.iter
            (fun which ->
              let c, c_ns =
                timed client (fun gpushim energy ->
                    Replayer.replay_compiled ~gpushim ~prog ~input ~params ~energy ())
              in
              let what = Printf.sprintf "%s %s" name which in
              check Alcotest.bool (what ^ " bit-identical") true
                (i.Replayer.output = c.Replayer.output);
              check Alcotest.int (what ^ " same entries applied") i.Replayer.entries_applied
                c.Replayer.entries_applied;
              check Alcotest.int64 (what ^ " same virtual ns") i_ns c_ns;
              if which = "first" then
                check (Alcotest.float 0.) (what ^ " same delay") i.Replayer.delay_s
                  c.Replayer.delay_s;
              check
                (Alcotest.option (Alcotest.float 0.))
                (what ^ " same energy") i.Replayer.energy_j c.Replayer.energy_j)
            [ "first"; "warm" ])
        [ ("", o.Orchestrate.blob); (" waiting on flushes", waiting_on_flushes o) ])
    (Lazy.force zoo_recordings)

let warm_session_reuse_stays_identical () =
  (* Compile once, one session, many replays: hints and cached images must
     not change semantics between the cold and warm executions. *)
  let blob = (Lazy.force mnist_recording).Orchestrate.blob in
  let plan = Network.expand Zoo.mnist in
  let params = Runner.weight_values plan ~seed:42L in
  let prog = Orchestrate.compile_recording ~blob () in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  List.iter
    (fun seed ->
      let input = Runner.input_values plan ~seed in
      let warm = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
      let interp = Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed () in
      check Alcotest.bool
        (Printf.sprintf "warm replay (seed %Ld) bit-identical" seed)
        true
        (warm.Replayer.output = interp.Orchestrate.r.Replayer.output))
    [ 7L; 8L; 7L; 9L; 7L ]

(* ---- Polls skip the iterations that cannot see a device event ----

   [Gpushim.spin_poll] (the offloaded poll and both replayers) and
   [Gpushim.reset_gpu] advance the clock over the iterations that must
   read the value the last read saw. The references are the loops they
   replace, one read and one spin per iteration, kept here. *)

module Clock = Grt_sim.Clock
module Energy = Grt_sim.Energy
module Device = Grt_gpu.Device
module Regs = Grt_gpu.Regs
module Gpushim = Grt.Gpushim

let rec reference_spin g ~reg ~mask ~cond ~max_iters ~spin_ns i =
  if i >= max_iters then -1
  else if Regs.poll_met cond ~mask (Device.read_reg (Gpushim.device g) reg) then i
  else begin
    Clock.advance_ns (Device.clock (Gpushim.device g)) spin_ns;
    reference_spin g ~reg ~mask ~cond ~max_iters ~spin_ns (i + 1)
  end

(* [Gpushim.reset_gpu]'s loop, one read per microsecond. *)
let reference_reset g =
  let dev = Gpushim.device g in
  let clock = Device.clock dev in
  Device.write_reg dev Regs.gpu_command Regs.cmd_soft_reset;
  let deadline = Int64.add (Clock.now_ns clock) 10_000_000L in
  let rec wait () =
    let v = Device.read_reg dev Regs.gpu_irq_rawstat in
    if Int64.logand v Regs.irq_reset_completed <> 0L then
      Device.write_reg dev Regs.gpu_irq_clear Regs.irq_reset_completed
    else if Int64.compare (Clock.now_ns clock) deadline < 0 then begin
      Clock.advance_ns clock 1_000L;
      wait ()
    end
    else failwith "reference reset timeout"
  in
  wait ()

(* Device commands that schedule events (power transitions, a cache flush
   after dirtying memory, a soft reset, an MMU command), each after a gap
   of virtual time, then one poll of a register those events change. *)
type poll_case = {
  commands : (int * int * int64) list;  (** gap ns, register, value *)
  reg : int;
  mask : int64;
  cond : Regs.poll_cond;
  max_iters : int;
  spin_ns : int64;
  start : int;
}

let gen_poll_case =
  let open QCheck2.Gen in
  let command =
    oneofl
      [
        (Regs.shader_pwron_lo, 0xFFL);
        (Regs.l2_pwron_lo, 0x1L);
        (Regs.shader_pwroff_lo, 0x0FL);
        (Regs.gpu_command, Regs.cmd_clean_caches);
        (Regs.gpu_command, Regs.cmd_soft_reset);
        (Regs.as_command 0, Regs.as_cmd_flush_mem);
        (Regs.as_command 1, Regs.as_cmd_update);
      ]
  in
  (* Multiples of the MMIO access time make an event land exactly on an
     iteration's read, the boundary of the skip. *)
  let ns bound = oneof [ int_bound bound; map (fun k -> k * 400) (int_bound (bound / 400)) ] in
  let* commands =
    list_size (int_range 0 4)
      (let* gap = ns 40_000 and* reg, v = command in
       return (gap, reg, v))
  in
  let* reg, mask =
    oneofl
      [
        (Regs.shader_ready_lo, 0xFFL);
        (Regs.shader_ready_lo, 0x0FL);
        (Regs.l2_ready_lo, 0x1L);
        (Regs.gpu_irq_rawstat, Regs.irq_clean_caches_completed);
        (Regs.gpu_irq_rawstat, Regs.irq_reset_completed);
        (Regs.gpu_irq_rawstat, Regs.irq_power_changed_all);
        (Regs.gpu_status, 1L);
        (Regs.as_status 0, Regs.as_status_flush_active);
      ]
  in
  let* cond = oneofl [ Regs.Bits_set; Regs.Bits_clear ] in
  let* max_iters = int_range 1 3000 and* spin_ns = map Int64.of_int (ns 3000) in
  let* start = int_bound 3 in
  return { commands; reg; mask; cond; max_iters; spin_ns; start }

let print_poll_case c =
  Printf.sprintf "commands [%s] poll %x mask %Lx %s max %d spin %Ld from %d"
    (String.concat "; "
       (List.map (fun (gap, r, v) -> Printf.sprintf "+%d %x<-%Lx" gap r v) c.commands))
    c.reg c.mask
    (match c.cond with Regs.Bits_set -> "set" | Regs.Bits_clear -> "clear")
    c.max_iters c.spin_ns c.start

let poll_skip_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"spin_poll, reset_gpu == the iteration loops"
       ~print:print_poll_case
       gen_poll_case (fun c ->
         let run (spin, reset) =
           let g, clock, energy = Orchestrate.replay_gpushim ~sku ~seed:5L () in
           Gpushim.isolate g;
           let dev = Gpushim.device g in
           Grt_gpu.Mem.write_f32_array (Gpushim.mem g) 0x40000L (Array.make 3000 1.0);
           List.iter
             (fun (gap, reg, v) ->
               Clock.advance_int clock gap;
               Device.write_reg dev reg v)
             c.commands;
           let i =
             spin g ~reg:c.reg ~mask:c.mask ~cond:c.cond ~max_iters:c.max_iters ~spin_ns:c.spin_ns
               c.start
           in
           let polled = (i, Clock.now_ns clock, Energy.total_j energy, Device.read_reg dev c.reg) in
           reset g;
           (polled, Clock.now_ns clock, Energy.total_j energy)
         in
         run (Gpushim.spin_poll, Gpushim.reset_gpu) = run (reference_spin, reference_reset)))

(* The interpreted replay of [Replayer.replay_segments] with the reference
   poll loop: the same session steps, the same per-entry work. Returns the
   output, virtual ns, energy and each poll's first-success iteration in
   entry order; a poll that exhausts its budget raises [Ref_timeout] with
   its entry index once the GPU is reset and released. *)
exception Ref_timeout of int * int64 * float

let reference_replay ~blob ~input ~params =
  let rec_t =
    match Recording.verify_and_parse ~key:Orchestrate.cloud_signing_key blob with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let g, clock, energy = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  let dev = Gpushim.device g and mem = Gpushim.mem g in
  let t0 = Clock.now_ns clock in
  let slot_write (slot : Recording.slot) values = Grt_gpu.Mem.write_f32_array mem slot.pa values in
  Gpushim.isolate g;
  Gpushim.reset_gpu g;
  Option.iter (fun slot -> slot_write slot input) (Recording.input_slot rec_t);
  List.iter
    (fun (name, values) ->
      List.iter
        (fun (s : Recording.slot) -> if s.slot_name = name then slot_write s values)
        (Recording.param_slots rec_t))
    params;
  let store = Grt.Memsync.Store.create () and firsts = ref [] in
  Array.iteri
    (fun index entry ->
      Clock.advance_ns clock Grt_sim.Costs.replayer_step_ns;
      match entry with
      | Recording.Mem_load logged ->
        ignore (Grt.Memsync.install store mem logged)
      | Recording.Reg_write { reg; value } -> Device.write_reg dev reg value
      | Recording.Reg_read { reg; _ } -> ignore (Device.read_reg dev reg)
      | Recording.Poll { reg; mask; cond; max_iters; spin_ns } ->
        let i = reference_spin g ~reg ~mask ~cond ~max_iters ~spin_ns 0 in
        if i < 0 then begin
          Gpushim.reset_gpu g;
          Gpushim.release g;
          raise (Ref_timeout (index, Int64.sub (Clock.now_ns clock) t0, Energy.total_j energy))
        end;
        firsts := i :: !firsts
      | Recording.Wait_irq _ -> ignore (Gpushim.wait_irq g ~timeout_ns:4_000_000_000L))
    rec_t.Recording.entries;
  let output =
    match Recording.output_slot rec_t with
    | Some s -> Grt_gpu.Mem.read_f32_array mem s.pa (s.actual_bytes / 4)
    | None -> [||]
  in
  Gpushim.reset_gpu g;
  Gpushim.release g;
  (output, Int64.sub (Clock.now_ns clock) t0, Energy.total_j energy, List.rev !firsts)

let poll_hints prog =
  Array.to_list prog.Replay_prog.groups
  |> List.concat_map (fun (g : Replay_prog.group) ->
         Array.to_list g.ops
         |> List.filter_map (function Replay_prog.Poll p -> Some p.hint | _ -> None))

let replays_match_reference_polls () =
  List.iter
    (fun (net, o) ->
      let blob = o.Orchestrate.blob and name = net.Network.name in
      let plan = Network.expand net in
      let input = Runner.input_values plan ~seed:7L in
      let params = Runner.weight_values plan ~seed:42L in
      let output, ns, joules, firsts = reference_replay ~blob ~input ~params in
      check Alcotest.bool (name ^ " polls spin") true (List.exists (fun i -> i > 0) firsts);
      let interp, i_ns =
        timed (Orchestrate.replay_gpushim ~sku ~seed:7L ()) (fun gpushim energy ->
            Replayer.replay_segments ~gpushim ~signing_key:Orchestrate.cloud_signing_key
              ~blobs:[ blob ] ~input ~params ~energy ())
      in
      let prog = Orchestrate.compile_recording ~blob () in
      let cold, c_ns =
        timed (Orchestrate.replay_gpushim ~sku ~seed:7L ()) (fun gpushim energy ->
            Replayer.replay_compiled ~gpushim ~prog ~input ~params ~energy ())
      in
      List.iter
        (fun (what, (r : Replayer.result), r_ns) ->
          let what = Printf.sprintf "%s %s" name what in
          check Alcotest.bool (what ^ " output") true (r.output = output);
          check Alcotest.int64 (what ^ " virtual ns") ns r_ns;
          check (Alcotest.option (Alcotest.float 0.)) (what ^ " energy") (Some joules) r.energy_j)
        [ ("interpreted", interp, i_ns); ("compiled", cold, c_ns) ];
      check Alcotest.(list int) (name ^ " learned hints") firsts (poll_hints prog))
    (Lazy.force zoo_recordings)

(* A poll whose budget ends one iteration before its recorded success
   times out at its own entry, at the reference's virtual time. *)
let poll_timeout_matches_reference () =
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording and blob = o.Orchestrate.blob in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let _, _, _, firsts = reference_replay ~blob ~input ~params in
  let entries = Array.copy rec_t.Recording.entries in
  (* the first poll that succeeds after spinning; [k] counts polls *)
  let k = ref 0 and target = ref (-1) in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Poll p ->
        let first = List.nth firsts !k in
        incr k;
        if !target < 0 && first > 0 then begin
          target := i;
          entries.(i) <- Recording.Poll { p with max_iters = first }
        end
      | _ -> ())
    entries;
  check Alcotest.bool "found a spinning poll" true (!target >= 0);
  let bad = Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries } in
  let index, ns, joules =
    match reference_replay ~blob:bad ~input ~params with
    | _ -> Alcotest.fail "the reference did not time out"
    | exception Ref_timeout (index, ns, joules) -> (index, ns, joules)
  in
  check Alcotest.int "reference times out at the tightened poll" !target index;
  List.iter
    (fun (what, replay) ->
      let g, clock, energy = Orchestrate.replay_gpushim ~sku ~seed:7L () in
      let t0 = Clock.now_ns clock in
      match replay g energy with
      | (_ : Replayer.result) -> Alcotest.failf "%s: no poll timeout" what
      | exception Replayer.Divergence { kind = Replayer.Poll_timeout; index = i; _ } ->
        check Alcotest.int (what ^ " timeout index") index i;
        check Alcotest.int64 (what ^ " virtual ns") ns (Int64.sub (Clock.now_ns clock) t0);
        check (Alcotest.float 0.) (what ^ " energy") joules (Energy.total_j energy))
    [
      ( "interpreted",
        fun gpushim energy ->
          Replayer.replay_segments ~gpushim ~signing_key:Orchestrate.cloud_signing_key
            ~blobs:[ bad ] ~input ~params ~energy () );
      ( "compiled",
        fun gpushim energy ->
          Replayer.replay_compiled ~gpushim ~prog:(Orchestrate.compile_recording ~blob:bad ())
            ~input ~params ~energy () );
    ]

let compile_stats_sensible () =
  let blob = (Lazy.force mnist_recording).Orchestrate.blob in
  let prog = Orchestrate.compile_recording ~blob () in
  let st = Replay_prog.stats prog in
  let rec_t = (Lazy.force mnist_recording).Orchestrate.recording in
  check Alcotest.int "entry count preserved" (Array.length rec_t.Recording.entries)
    st.Replay_prog.entries;
  check Alcotest.bool "write runs fused" true (st.Replay_prog.fused_writes > 0);
  check Alcotest.bool "memory image precompiled" true (st.Replay_prog.static_pages > 0);
  check Alcotest.bool "ops below entries" true (st.Replay_prog.ops < st.Replay_prog.entries)

let streaming_rejects_tampered_chunk () =
  (* v2 layout is header ∥ mac ∥ chunk bodies: flipping the blob's last
     byte corrupts a chunk body but leaves the signed header intact, so
     compilation (header-only verification) must succeed and the executor's
     streaming hash check must catch it mid-replay. *)
  let blob = Bytes.copy (Lazy.force mnist_recording).Orchestrate.blob in
  let last = Bytes.length blob - 1 in
  Bytes.set blob last (Char.chr (Char.code (Bytes.get blob last) lxor 0xFF));
  let prog =
    match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
    | Ok p -> p
    | Error e -> Alcotest.fail ("header verification should pass, got: " ^ e)
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  match Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:7L () with
  | _ -> Alcotest.fail "tampered chunk replayed"
  | exception Replayer.Rejected _ -> ()

let tampered_header_rejected_at_compile () =
  let blob = Bytes.copy (Lazy.force mnist_recording).Orchestrate.blob in
  Bytes.set blob 16 '\xFF';
  match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
  | Ok _ -> Alcotest.fail "tampered header compiled"
  | Error _ -> ()

(* A chunk body is not hash-checked before static lowering decodes its
   [Enc_raw_rc] images, so a tampered length field inside one must come back
   as an [Error] from [of_blob] — without first allocating what it
   declares. *)
let fastpath_recording =
  lazy
    (Orchestrate.record ~config:Grt.Service.fastpath_cfg ~profile:Profile.wifi ~mode:Mode.Ours_mds
       ~sku ~net:Zoo.mnist ~seed:42L ())

let find_sub hay needle =
  let n = Bytes.length needle in
  let rec go i =
    if i + n > Bytes.length hay then None
    else if Bytes.equal (Bytes.sub hay i n) needle then Some i
    else go (i + 1)
  in
  go 0

let tampered_rc_body_rejected_at_compile () =
  let blob = (Lazy.force fastpath_recording).Orchestrate.blob in
  let key = Orchestrate.cloud_signing_key in
  let v =
    match Recording.parse_signed ~key blob with
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  let body =
    Array.to_list v.Recording.vrec.Recording.entries
    |> List.concat_map (function
         | Recording.Mem_load { Grt.Memsync.tagged = true; records } ->
           List.filter_map
             (fun (_, enc, body) -> if enc = Grt.Memsync.Enc_raw_rc then Some body else None)
             records
         | _ -> [])
    |> List.find_opt (fun b -> Bytes.length b >= 16)
  in
  let body = match body with Some b -> b | None -> Alcotest.fail "no raw+rc record in the blob" in
  let at = match find_sub blob body with Some i -> i | None -> Alcotest.fail "body not in blob" in
  List.iter
    (fun prefix ->
      let tampered = Bytes.copy blob in
      Bytes.blit_string prefix 0 tampered at (String.length prefix);
      (* A minor collection between the two reads can make OCaml 5.1 report a
         spurious 0x1C0000-byte jump; start from an empty minor heap. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      let result = Replay_prog.of_blob ~key tampered in
      let allocated = Gc.allocated_bytes () -. before in
      (match result with
      | Ok _ -> Alcotest.failf "tampered body compiled (prefix %S)" prefix
      | Error _ -> ());
      if allocated > 4e6 then
        Alcotest.failf "rejecting the tampered body allocated %.0f bytes" allocated)
    [ "\x80\x80\x80\x80\x02"; "\x80\x80\x80\x80\x80\x80\x80\x80\x40" ]

(* Hostile bytes at the trust boundary: every decoder must answer [Error]
   without raising and without allocating what the bytes declare. The base
   is a signed 200-entry blob with no slots whose first entry is a one-page
   [Mem_load], so each field sits at a known offset. *)
let hostile_blobs_rejected_cheaply () =
  let key = Orchestrate.cloud_signing_key in
  let workload = "hostile" in
  let page = Bytes.make Grt_gpu.Mem.page_size '\x5a' in
  let entries =
    Array.init 200 (fun i ->
        if i = 0 then
          Recording.Mem_load
            { Grt.Memsync.tagged = false; records = [ (0x80000L, Grt.Memsync.Enc_raw, page) ] }
        else Recording.Reg_write { reg = 4 * (i mod 64); value = Int64.of_int i })
  in
  let blob = Recording.sign ~key { Recording.workload; gpu_id = sku.Sku.gpu_id; entries; slots = [] } in
  (* magic ∥ version ∥ workload ∥ gpu_id ∥ n_slots ∥ varint 200 (2 bytes) ∥ n_chunks *)
  let slots_at = 6 + 1 + String.length workload + 8 in
  let chunks_at = slots_at + 3 in
  (* tag 5 ∥ page count ∥ pfn (8) ∥ varint 4096 (2) ∥ page *)
  let count_at =
    match find_sub blob page with Some i -> i - 11 | None -> Alcotest.fail "page not in blob"
  in
  check Alcotest.(list int) "fields where expected" [ 0; 4; 5; 1 ]
    (List.map (fun i -> Char.code (Bytes.get blob i)) [ slots_at; chunks_at; count_at - 1; count_at ]);
  let tamper at s =
    let b = Bytes.copy blob in
    Bytes.blit_string s 0 b at (String.length s);
    b
  in
  let wide = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  let decoders =
    [
      ("parse_signed", fun b -> Result.is_ok (Recording.parse_signed ~key b));
      ("verify_and_parse", fun b -> Result.is_ok (Recording.verify_and_parse ~key b));
      ("verify", fun b -> Result.is_ok (Recording.verify ~key b));
      ("of_blob", fun b -> Result.is_ok (Replay_prog.of_blob ~key b));
    ]
  in
  List.iter
    (fun (what, bad) ->
      List.iter
        (fun (decoder, accepts) ->
          (* A minor collection between the two reads can make OCaml 5.1 report a
             spurious 0x1C0000-byte jump; start from an empty minor heap. *)
          Gc.minor ();
          let before = Gc.allocated_bytes () in
          let accepted =
            match accepts bad with
            | ok -> ok
            | exception e -> Alcotest.failf "%s raised %s on %s" decoder (Printexc.to_string e) what
          in
          let allocated = Gc.allocated_bytes () -. before in
          if accepted then Alcotest.failf "%s accepted %s" decoder what;
          if allocated > 4e6 then
            Alcotest.failf "%s allocated %.0f bytes rejecting %s" decoder allocated what)
        decoders)
    [
      ("a 63-bit workload length", tamper 6 wide);
      ("a 63-bit slot count", tamper slots_at wide);
      ("2^26 chunks", tamper chunks_at "\x80\x80\x80\x20");
      ("2^40 chunks", tamper chunks_at "\x80\x80\x80\x80\x80\x20");
      ("a 63-bit page count in a chunk body", tamper count_at wide);
    ]

(* Signed-but-malformed page records: the blob verifies, so only the page
   decoder stands between these bodies and the GPU's memory. Each record is
   appended to the MNIST recording and re-signed. Compile must answer
   [Error] or execution must raise [Rejected] — in both replayers — and
   nothing may escape as an untyped exception. *)
let hostile_records_rejected () =
  let key = Orchestrate.cloud_signing_key in
  let rec_t = (Lazy.force mnist_recording).Orchestrate.recording in
  let pfn = 0x80000L in
  let short = Bytes.make 100 '\x5a' in
  let span_past_end =
    (* varint 4096 ∥ one span ∥ gap 4090 ∥ length 100 ∥ 100 bytes *)
    let b = Grt_util.Byte_buf.create () in
    List.iter (Grt_util.Byte_buf.add_varint b) [ Grt_gpu.Mem.page_size; 1; 4090; 100 ];
    Grt_util.Byte_buf.add_sub b short ~pos:0 ~len:100;
    Grt_util.Byte_buf.contents b
  in
  let unknown_hash = Bytes.create 8 in
  Bytes.set_int64_le unknown_hash 0 0x0123_4567_89AB_CDEFL;
  let load ~tagged e body = Recording.Mem_load { Grt.Memsync.tagged; records = [ (pfn, e, body) ] } in
  let enc = load ~tagged:true in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let outcome f =
    match f () with
    | () -> "accepted"
    | exception Replayer.Rejected _ -> "rejected"
    | exception e -> "raised " ^ Printexc.to_string e
  in
  List.iter
    (fun (what, entry) ->
      let blob =
        Recording.sign ~key
          { rec_t with Recording.entries = Array.append rec_t.Recording.entries [| entry |] }
      in
      let compiled () =
        match Replay_prog.of_blob ~key blob with
        | Error e -> raise (Replayer.Rejected e)
        | Ok prog -> ignore (Orchestrate.replay_compiled ~sku ~prog ~input ~params ~seed:7L ())
      in
      let interpreted () =
        ignore (Orchestrate.replay_recording ~sku ~blob ~input ~params ~seed:7L ())
      in
      check Alcotest.string (what ^ ", compiled") "rejected" (outcome compiled);
      check Alcotest.string (what ^ ", interpreted") "rejected" (outcome interpreted))
    [
      ("a delta span past the page end", enc Grt.Memsync.Enc_delta span_past_end);
      ("an unknown hash reference", enc Grt.Memsync.Enc_hash_ref unknown_hash);
      ("a 100-byte raw page", enc Grt.Memsync.Enc_raw short);
      ("a 100-byte page range-coded", enc Grt.Memsync.Enc_raw_rc (Grt_util.Range_coder.encode short));
      ("a 100-byte untagged page", load ~tagged:false Grt.Memsync.Enc_raw short);
    ]

(* Hash references resolve in both replayers: one to a raw page (the
   compiler resolves it) and one to a delta's result (only the executor's
   store can). Four tagged loads are appended to the MNIST recording; every
   replay — interpreted, compiled cold and compiled warm — must install A,
   A, B, B at the four pages and keep the recording's output. *)
let hash_references_replay () =
  let key = Orchestrate.cloud_signing_key in
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let pfn = 0x80000L in
  let page seed = Grt_util.Rng.bytes (Grt_util.Rng.create ~seed) Grt_gpu.Mem.page_size in
  let a = page 21L and b = page 22L in
  let href p =
    let h = Bytes.create 8 in
    Bytes.set_int64_le h 0 (Grt.Memsync.hash_page p);
    h
  in
  let load k enc body =
    Recording.Mem_load { Grt.Memsync.tagged = true; records = [ (Int64.add pfn (Int64.of_int k), enc, body) ] }
  in
  let delta_b = Grt_util.Delta.diff ~old_:(Bytes.make Grt_gpu.Mem.page_size '\000') ~fresh:b in
  let blob =
    Recording.sign ~key
      {
        rec_t with
        Recording.entries =
          Array.append rec_t.Recording.entries
            [|
              load 0 Grt.Memsync.Enc_raw a;
              load 1 Grt.Memsync.Enc_hash_ref (href a);
              load 2 Grt.Memsync.Enc_delta delta_b;
              load 3 Grt.Memsync.Enc_hash_ref (href b);
            |];
      }
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let reference = Orchestrate.replay_recording ~sku ~blob:o.Orchestrate.blob ~input ~params ~seed:7L () in
  let installed what g =
    List.iteri
      (fun k want ->
        check Alcotest.bytes
          (Printf.sprintf "%s: page %d" what k)
          want
          (Grt_gpu.Mem.get_page (Grt.Gpushim.mem g) (Int64.add pfn (Int64.of_int k))))
      [ a; a; b; b ]
  in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  let r =
    Replayer.replay_segments ~gpushim:g ~signing_key:key ~blobs:[ blob ] ~input ~params ()
  in
  installed "interpreted" g;
  check Alcotest.bool "interpreted output" true
    (r.Replayer.output = reference.Orchestrate.r.Replayer.output);
  let prog = Orchestrate.compile_recording ~blob () in
  check Alcotest.int "two loads left to the executor" 2 (Replay_prog.stats prog).Replay_prog.dynamic_loads;
  check Alcotest.int "both uncached before the first replay" 2 prog.Replay_prog.uncached_dynamic;
  List.iter
    (fun what ->
      let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
      let r = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
      installed what g;
      check Alcotest.bool (what ^ " output") true
        (r.Replayer.output = reference.Orchestrate.r.Replayer.output);
      check Alcotest.int (what ^ ": every load cached") 0 prog.Replay_prog.uncached_dynamic)
    [ "compiled cold"; "compiled warm" ]

let divergence_releases_gpu () =
  (* An exception mid-execution must still reset and release the GPU so the
     session object remains usable for the next replay. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_read { reg; value; verify = true } when not !patched ->
        entries.(i) <- Recording.Reg_read { reg; value = Int64.logxor value 0x5L; verify = true };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a verified read to corrupt" true !patched;
  let bad_blob =
    Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries }
  in
  let plan = Network.expand Zoo.mnist in
  let input = Runner.input_values plan ~seed:7L in
  let params = Runner.weight_values plan ~seed:42L in
  let g, _, _ = Orchestrate.replay_gpushim ~sku ~seed:7L () in
  let bad_prog = Orchestrate.compile_recording ~blob:bad_blob () in
  (match Replayer.replay_compiled ~gpushim:g ~prog:bad_prog ~input ~params () with
  | _ -> Alcotest.fail "divergence not detected"
  | exception Replayer.Divergence _ -> ());
  check Alcotest.bool "GPU released after divergence" false (Grt.Gpushim.isolated g);
  (* Same session replays the honest program afterwards. *)
  let prog = Orchestrate.compile_recording ~blob:o.Orchestrate.blob () in
  let r = Replayer.replay_compiled ~gpushim:g ~prog ~input ~params () in
  let interp = Orchestrate.replay_recording ~sku ~blob:o.Orchestrate.blob ~input ~params ~seed:7L () in
  check Alcotest.bool "session reusable after divergence" true
    (r.Replayer.output = interp.Orchestrate.r.Replayer.output)

let attest_token_roundtrip () =
  let o = Lazy.force mnist_recording in
  let prog = Orchestrate.compile_recording ~blob:o.Orchestrate.blob () in
  let root = Replay_prog.root prog in
  let key = Orchestrate.client_attestation_key in
  let token =
    Attestation.make_replay_token ~signing_key:key ~root ~gpu_id:sku.Sku.gpu_id ~entries:1024
      ~nonce:99L
  in
  check Alcotest.bool "token verifies" true
    (Result.is_ok
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:99L token));
  check Alcotest.bool "wrong nonce rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:100L token));
  check Alcotest.bool "wrong root rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root:(Int64.add root 1L)
          ~gpu_id:sku.Sku.gpu_id ~nonce:99L token));
  check Alcotest.bool "tampered signature rejected" true
    (Result.is_error
       (Attestation.verify_replay_token ~verification_key:key ~root ~gpu_id:sku.Sku.gpu_id
          ~nonce:99L
          (Attestation.tamper_replay_token token)))

let root_stable_across_resigning () =
  (* The Merkle root is the recording's identity: re-signing the same log
     yields the same root; changing one entry changes it. *)
  let o = Lazy.force mnist_recording in
  let rec_t = o.Orchestrate.recording in
  let root_of blob =
    match Replay_prog.of_blob ~key:Orchestrate.cloud_signing_key blob with
    | Ok p -> Replay_prog.root p
    | Error e -> Alcotest.fail e
  in
  let r1 = root_of (Recording.sign ~key:Orchestrate.cloud_signing_key rec_t) in
  let r2 = root_of (Recording.sign ~key:Orchestrate.cloud_signing_key rec_t) in
  check Alcotest.int64 "same log, same root" r1 r2;
  let entries = Array.copy rec_t.Recording.entries in
  let patched = ref false in
  Array.iteri
    (fun i e ->
      match e with
      | Recording.Reg_write { reg; value } when not !patched ->
        entries.(i) <- Recording.Reg_write { reg; value = Int64.logxor value 1L };
        patched := true
      | _ -> ())
    entries;
  check Alcotest.bool "found a register write to flip" true !patched;
  let r3 =
    root_of (Recording.sign ~key:Orchestrate.cloud_signing_key { rec_t with Recording.entries })
  in
  check Alcotest.bool "different log, different root" true (not (Int64.equal r1 r3))

let bench_row_json_schema () =
  (* The bench's machine-readable row must carry exactly the printed
     fields, with the types the plotting scripts expect. *)
  let ctx = E.create_ctx () in
  let rows = E.replay_bench ~rows:[ (Zoo.mnist, `Default) ] ~iters:1 ctx in
  check Alcotest.int "one row per net" 1 (List.length rows);
  let row = List.hd rows in
  check Alcotest.bool "bit-identical" true row.E.bit_identical;
  check Alcotest.bool "rates positive" true
    (row.E.interpreted_rps > 0. && row.E.compiled_cold_rps > 0. && row.E.compiled_warm_rps > 0.);
  match E.replay_bench_row_json row with
  | Json.Obj fields ->
    let expect name pred =
      match List.assoc_opt name fields with
      | Some v when pred v -> ()
      | Some _ -> Alcotest.fail (name ^ " has the wrong JSON type")
      | None -> Alcotest.fail (name ^ " missing from JSON row")
    in
    let is_num = function Json.Num _ -> true | _ -> false in
    let is_bool = function Json.Bool _ -> true | _ -> false in
    expect "workload" (function Json.Str "MNIST" -> true | _ -> false);
    List.iter
      (fun f -> expect f is_num)
      [
        "entries";
        "interpreted_rps";
        "compiled_cold_rps";
        "compiled_warm_rps";
        "warm_speedup";
        "fused_writes";
        "static_pages";
        "dynamic_loads";
        "warm_minor_words";
        "cold_minor_words";
        "ceiling_warm_minor_words";
        "ceiling_cold_minor_words";
      ];
    expect "bit_identical" is_bool;
    (* Round-trips through the parser (the bench writes these to disk). *)
    (match Json.parse (Json.to_string (Json.Obj fields)) with
    | Ok _ -> ()
    | Error e -> Alcotest.fail ("row does not re-parse: " ^ e))
  | _ -> Alcotest.fail "row is not a JSON object"

let () =
  Alcotest.run "grt_replay_prog"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest compiled_equals_interpreted_prop;
          Alcotest.test_case "bit-identical on all nets" `Slow compiled_bit_identical_all_nets;
          Alcotest.test_case "warm session reuse" `Quick warm_session_reuse_stays_identical;
          Alcotest.test_case "compile stats" `Quick compile_stats_sensible;
        ] );
      ( "poll skip",
        [
          poll_skip_matches_reference;
          Alcotest.test_case "replays match the reference loop" `Slow
            replays_match_reference_polls;
          Alcotest.test_case "poll timeout matches the reference loop" `Quick
            poll_timeout_matches_reference;
        ] );
      ( "verification",
        [
          Alcotest.test_case "streaming rejects tampered chunk" `Quick
            streaming_rejects_tampered_chunk;
          Alcotest.test_case "tampered header rejected at compile" `Quick
            tampered_header_rejected_at_compile;
          Alcotest.test_case "tampered rc body rejected at compile" `Quick
            tampered_rc_body_rejected_at_compile;
          Alcotest.test_case "hostile blobs rejected cheaply" `Quick hostile_blobs_rejected_cheaply;
          Alcotest.test_case "hostile page records rejected" `Quick hostile_records_rejected;
          Alcotest.test_case "hash references replay" `Quick hash_references_replay;
          Alcotest.test_case "divergence releases GPU" `Quick divergence_releases_gpu;
        ] );
      ( "attestation",
        [
          Alcotest.test_case "replay token roundtrip" `Quick attest_token_roundtrip;
          Alcotest.test_case "root stable across resigning" `Quick root_stable_across_resigning;
        ] );
      ("bench", [ Alcotest.test_case "replay bench row JSON" `Slow bench_row_json_schema ]);
    ]
