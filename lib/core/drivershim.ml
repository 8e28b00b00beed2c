open Shim_engine
module Backend = Grt_driver.Backend
module Regs = Grt_gpu.Regs
module Sexpr = Grt_util.Sexpr
module Link = Grt_net.Link
module Metrics = Grt_sim.Metrics

exception Mispredict = Shim_engine.Mispredict
exception Recovery_diverged = Recovery.Recovery_diverged

type category = Shim_engine.category = Init | Interrupt | Power | Polling | Other

let category_name = Shim_engine.category_name
let all_categories = Shim_engine.all_categories
let category_key = Shim_engine.category_key

type history = Spec_history.t

let fresh_history = Spec_history.create

type t = Shim_engine.t

let create = Shim_engine.create

let downlink (t : t) = t.downlink

(* ---- committing ---- *)

let rec has_nondet_read b i =
  i < Wire.n_reads b && (Regs.is_nondeterministic (Wire.read_reg b i) || has_nondet_read b (i + 1))

let commit_batch t ~trigger b site =
  let n = Wire.length b and n_reads = Wire.n_reads b in
  count t Metrics.Commits_total 1;
  count t Metrics.Commits_accesses n;
  Hist.record_opt t.hists Hist.Commit_accesses n;
  if t.epoch_tainted && not (Queue.is_empty t.outstanding) then begin
    count t Metrics.Spec_epoch_stalls 1;
    drain t
  end;
  let wire =
    try Wire.to_wire b
    with Wire.Need_drain ->
      count t Metrics.Spec_dep_stalls 1;
      drain t;
      Wire.to_wire b
  in
  let nondet = has_nondet_read b 0 in
  let confident = if nondet then None else history_confident t site in
  let send = request_bytes t n in
  let recv = response_bytes t n_reads in
  let speculate_values =
    if (not (Mode.speculation t.cfg.Mode.mode)) || t.in_poll_loop then None
    else if degraded_now t then begin
      count t Metrics.Spec_degraded_suppressed 1;
      None
    end
    else if n_reads = 0 then Some [||] (* write-only commits go out asynchronously *)
    else confident
  in
  if Mode.speculation t.cfg.Mode.mode && nondet then count t Metrics.Spec_rejected_nondet 1;
  match speculate_values with
  | Some predicted when Array.length predicted = n_reads ->
    let log_mark = t.log.len in
    let actuals = apply_now t wire in
    dispatch_speculative t ~site
      ~category:(category_of t ~is_poll:(String.equal trigger "poll"))
      ~send ~recv ~regs:(Wire.read_regs b) ~predicted ~actual:(maybe_inject t actuals)
      ~syms:(Wire.read_syms b) ~log_mark;
    if n_reads > 0 then history_update t site actuals;
    log_applied t b actuals
  | Some _ | None ->
    (* Synchronous commit. FIFO delivery means every outstanding response
       arrives no later than this one, so the blocking round trip also
       covers their validation — drain afterwards, when the waits are
       free. *)
    Link.round_trip t.link ~send_bytes:send ~recv_bytes:recv;
    drain t;
    let actuals = apply_now t wire in
    for i = 0 to n_reads - 1 do
      Sexpr.bind (Wire.read_sym b i) actuals.(i) ~speculative:false
    done;
    if n_reads > 0 then history_update t site actuals;
    count t Metrics.Commits_sync 1;
    Trace.commit_opt t.trace ~site:site.Wire.key ~accesses:n;
    log_applied t b actuals

(* The batch empties whether the commit completes or raises (a
   misprediction surfacing in a drain ends the attempt). *)
let commit t ~trigger =
  let b = batch t in
  if Wire.length b > 0 then begin
    let site = site_key t ~trigger b in
    match
      match t.tracer with
      | None -> commit_batch t ~trigger b site
      | Some _ ->
        Tracer.span_opt t.tracer ~cat:Tracer.Commit
          ~args:[ ("site", site.Wire.key); ("trigger", trigger) ]
          ~name:"commit"
          (fun () -> commit_batch t ~trigger b site)
    with
    | () -> Wire.clear b
    | exception e ->
      Wire.clear b;
      raise e
  end

(* ---- backend implementation ---- *)

let deferral_active t =
  Mode.deferral t.cfg.Mode.mode
  && ((not t.cfg.Mode.hot_function_scope) || t.hot_stack <> [])

let sniff_write t reg expr =
  (* Detect the job-start write that triggers a downlink sync (§5). *)
  (match Sexpr.eval expr with Some v -> t.sniff reg v | None -> ());
  if reg = Regs.js_command 0 || reg = Regs.js_command_next 0 then
    match Sexpr.eval expr with
    | Some v when Int64.equal v Regs.js_cmd_start -> Sync_flow.down t
    | _ -> ()

let read_reg t reg =
  count t Metrics.Reg_reads 1;
  if deferral_active t then begin
    let sym = Sexpr.fresh_sym ~origin:(Regs.name reg) in
    Wire.push_read (batch t) reg sym;
    Sexpr.sym sym
  end
  else begin
    let sym = Sexpr.fresh_sym ~origin:(Regs.name reg) in
    Wire.push_read (batch t) reg sym;
    commit t ~trigger:"sync";
    Sexpr.const (Option.get (Sexpr.eval (Sexpr.sym sym)))
  end

let write_reg t reg expr =
  count t Metrics.Reg_writes 1;
  sniff_write t reg expr;
  Wire.push_write (batch t) reg expr;
  if not (deferral_active t) then commit t ~trigger:"sync"

let force t expr =
  match Sexpr.eval expr with
  | Some v ->
    if Sexpr.speculative expr then t.epoch_tainted <- true;
    v
  | None -> (
    commit t ~trigger:"control";
    match Sexpr.eval expr with
    | Some v ->
      if Sexpr.speculative expr then t.epoch_tainted <- true;
      v
    | None -> failwith "DriverShim.force: symbol still unbound after commit")

let log_poll t ~reg ~mask ~cond ~max_iters ~spin_ns =
  log_push t.log (Recording.Poll { reg; mask; cond; max_iters; spin_ns })

(* An offloaded polling loop is a 2-access commit (the loop's register and
   its condition), counted as such everywhere the link charges it. *)
let count_poll_commit t =
  count t Metrics.Commits_total 1;
  count t Metrics.Commits_accesses 2;
  Hist.record_opt t.hists Hist.Commit_accesses 2

(* One offloaded polling loop in one message each way, speculated when the
   site's history is confident (§4.3). *)
let offload_poll t site ~reg ~mask ~cond ~max_iters ~spin_ns =
  let send = request_bytes t 2 and recv = response_bytes t 2 in
  let run () = Gpushim.run_poll t.gpushim ~reg ~mask ~cond ~max_iters ~spin_ns in
  let speculate =
    if Regs.is_nondeterministic reg then None
    else if degraded_now t then begin
      count t Metrics.Spec_degraded_suppressed 1;
      None
    end
    else history_confident t site
  in
  match speculate with
  | Some predicted when Array.length predicted = 1 ->
    let log_mark = t.log.len - 1 in
    (* the Poll entry itself was just logged; exclude it from the prefix *)
    let result = run () in
    let observed = match result with Some (_, v) -> v | None -> -1L in
    let actual = maybe_inject t [| observed |] in
    count_poll_commit t;
    dispatch_speculative t ~site ~category:Polling ~send ~recv ~regs:[| reg |] ~predicted ~actual
      ~syms:[||] ~log_mark:(max 0 log_mark);
    (* History learns only the true observation, never the injected value
       used for the validation check — one transient fault must not poison
       future predictions at this site — and never the -1L timeout
       sentinel, which is not a register value. A timeout instead forgets
       the site: the prediction is about to fail validation, and keeping
       the stale confidence would re-speculate the same wrong value on
       every recovery attempt. *)
    (match result with
    | Some (_, v) -> history_update t site [| v |]
    | None -> history_forget t site);
    (match result with
    | Some (iters, _) -> Backend.Poll_ok { iters; value = predicted.(0) }
    | None -> Backend.Poll_ok { iters = max_iters; value = predicted.(0) })
  | _ -> (
    drain t;
    Link.round_trip t.link ~send_bytes:send ~recv_bytes:recv;
    count_poll_commit t;
    count t Metrics.Commits_sync 1;
    Trace.commit_opt t.trace ~site:site.Wire.key ~accesses:2;
    match run () with
    | Some (iters, value) ->
      history_update t site [| value |];
      Backend.Poll_ok { iters; value }
    | None -> Backend.Poll_timeout)

let poll_reg t ~reg ~mask ~cond ~max_iters ~spin_ns =
  count t Metrics.Poll_instances 1;
  if t.cfg.Mode.offload_polling then begin
    (* Flush pending accesses so the loop observes their effects, then ship
       the loop in one message (§4.3). *)
    commit t ~trigger:"poll";
    log_poll t ~reg ~mask ~cond ~max_iters ~spin_ns;
    count t Metrics.Poll_offloaded 1;
    let site = Wire.poll_site ~reg ~mask ~cond in
    match t.tracer with
    | None -> offload_poll t site ~reg ~mask ~cond ~max_iters ~spin_ns
    | Some _ ->
      Tracer.span_opt t.tracer ~cat:Tracer.Poll_offload
        ~args:[ ("site", site.Wire.key) ]
        ~name:"poll"
        (fun () -> offload_poll t site ~reg ~mask ~cond ~max_iters ~spin_ns)
  end
  else begin
    (* Iterate remotely: every iteration reads the register through the
       normal path, costing a round trip (§4.3's "problem" case). The loop
       is represented in the log by a single Poll entry; individual
       iteration reads are suppressed so replay re-iterates on its own
       device timing. *)
    commit t ~trigger:"poll";
    log_poll t ~reg ~mask ~cond ~max_iters ~spin_ns;
    t.suppress_read_log <- Some reg;
    t.in_poll_loop <- true;
    Fun.protect
      ~finally:(fun () ->
        t.suppress_read_log <- None;
        t.in_poll_loop <- false)
      (fun () ->
        let rec loop i =
          if i >= max_iters then Backend.Poll_timeout
          else begin
            let v = force t (read_reg t reg) in
            count t Metrics.Poll_iters 1;
            if Regs.poll_met cond ~mask v then Backend.Poll_ok { iters = i + 1; value = v }
            else loop (i + 1)
          end
        in
        loop 0)
  end

let wait_irq t ~timeout_us =
  commit t ~trigger:"wait_irq";
  count t Metrics.Irq_waits 1;
  match Gpushim.wait_irq t.gpushim ~timeout_ns:(Int64.of_int (timeout_us * 1000)) with
  | None -> None
  | Some line ->
    log_push t.log (Recording.Wait_irq { line });
    Sync_flow.up t;
    Some line

let backend t =
  (* In recovery mode every operation is answered from the validated log
     with local GPU replay; once the prefix runs dry the live machinery
     takes over transparently. *)
  let recovering () =
    if Recovery.active t.recovery then begin
      Recovery.pop_memloads t.recovery;
      Recovery.active t.recovery
    end
    else false
  in
  let in_recovery () = Recovery.active t.recovery in
  {
    Backend.read_reg =
      (fun reg ->
        if recovering () then begin
          count t Metrics.Reg_reads 1;
          Recovery.read t.recovery reg
        end
        else read_reg t reg);
    write_reg =
      (fun reg v ->
        if recovering () then begin
          count t Metrics.Reg_writes 1;
          Recovery.write t.recovery reg
        end
        else write_reg t reg v);
    force = (fun e -> force t e);
    poll_reg =
      (fun ~reg ~mask ~cond ~max_iters ~spin_ns ->
        if recovering () then begin
          count t Metrics.Poll_instances 1;
          Recovery.poll t.recovery ~reg ~mask ~cond ~max_iters ~spin_ns
        end
        else poll_reg t ~reg ~mask ~cond ~max_iters ~spin_ns);
    delay_us =
      (fun us ->
        if recovering () then Grt_sim.Clock.advance_ns (Link.clock t.link) (Int64.of_int (us * 1000))
        else begin
          (* Explicit delays are commit barriers (§4.1). *)
          commit t ~trigger:"delay";
          Grt_sim.Clock.advance_ns (Link.clock t.link) (Int64.of_int (us * 1000))
        end);
    (* Lock/unlock boundaries always commit: deferring across them is
       unsound under concurrency (§4.1). *)
    lock = (fun _ -> if not (in_recovery ()) then commit t ~trigger:"lock");
    unlock = (fun _ -> if not (in_recovery ()) then commit t ~trigger:"unlock");
    externalize =
      (fun _ ->
        if not (in_recovery ()) then begin
          (* printk must observe fully validated state (§4.2). *)
          commit t ~trigger:"externalize";
          drain t
        end);
    now_us = (fun () -> Int64.div (Grt_sim.Clock.now_ns (Link.clock t.link)) 1000L);
    wait_irq =
      (fun ~timeout_us ->
        if recovering () then Recovery.wait_irq t.recovery ~timeout_us else wait_irq t ~timeout_us);
    irq_scope =
      (fun f ->
        let prev = t.cur_thread in
        t.cur_thread <- Irq;
        Fun.protect ~finally:(fun () ->
            commit t ~trigger:"irq_exit";
            t.cur_thread <- prev)
          f);
    enter_hot = (fun fn -> t.hot_stack <- fn :: t.hot_stack);
    exit_hot =
      (fun _ ->
        (match t.hot_stack with [] -> () | _ :: rest -> t.hot_stack <- rest);
        if t.cfg.Mode.hot_function_scope then commit t ~trigger:"hot_exit";
        (* The speculative branch's local state dies with the hot function;
           taint that escapes through driver state is still carried by the
           symbols themselves. *)
        t.epoch_tainted <- false);
  }

let finalize t =
  commit t ~trigger:"finalize";
  drain t

let entries t = List.rev t.log.items

let validated_prefix t =
  (* Everything logged before the oldest unvalidated speculative commit is
     confirmed truth; with nothing outstanding, the whole log is. Used by
     the orchestrator to resume after a [Link.Link_down], exactly like a
     misprediction's [valid_log]. *)
  let mark =
    match Queue.peek_opt t.outstanding with Some o -> o.o_log_mark | None -> t.log.len
  in
  log_prefix t.log mark

let mark_segment t = t.segment_marks <- t.log.len :: t.segment_marks

let segment_marks t = List.rev t.segment_marks

let inject_fault_after t n = t.inject_countdown <- Some n
