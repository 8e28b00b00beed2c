module Backend = Grt_driver.Backend
module Regs = Grt_gpu.Regs
module Sexpr = Grt_util.Sexpr
module Metrics = Grt_sim.Metrics

exception Recovery_diverged of string

type t = {
  cfg : Mode.config;
  gpushim : Gpushim.t;
  cloud_mem : Grt_gpu.Mem.t;
  downlink : Memsync.t;
  clock : Grt_sim.Clock.t;
  metrics : Metrics.t;
  trace : Grt_sim.Trace.t;
  append : Recording.entry -> unit; (* onto the shim's interaction log *)
  sniff : int -> int64 -> unit; (* root/head sniffing on replayed writes *)
  mutable prefix : Recording.entry list; (* oldest first; empty once live *)
  mutable replayed : int;
}

let create ~cfg ~gpushim ~cloud_mem ~downlink ~clock ~metrics ~trace ~append ~sniff prefix =
  { cfg; gpushim; cloud_mem; downlink; clock; metrics; trace; append; sniff; prefix; replayed = 0 }

let count t key v = Metrics.add t.metrics key v

let step_cost t = Grt_sim.Clock.advance_ns t.clock Grt_sim.Costs.replayer_step_ns

let active t = match t.prefix with [] -> false | _ :: _ -> true

(* One entry left the prefix; on the last one, note the transition to live. *)
let note_pop t =
  t.replayed <- t.replayed + 1;
  if t.prefix = [] then
    Grt_sim.Trace.event t.trace (Grt_sim.Trace.Replay_live { replayed = t.replayed })

let fail fmt = Printf.ksprintf (fun m -> raise (Recovery_diverged m)) fmt

(* Apply any memory snapshots sitting at the head of the prefix: install
   each on the client, then re-teach this attempt's fresh downlink sender
   state, so later live syncs delta/dedup against the same view the
   recording's replayer will hold. *)
let rec pop_memloads t =
  match t.prefix with
  | (Recording.Mem_load logged as e) :: rest ->
    t.prefix <- rest;
    note_pop t;
    step_cost t;
    count t Metrics.Recovery_pages (List.length logged.Memsync.records);
    List.iter
      (fun (pfn, page) -> Memsync.note_shipped t.downlink pfn page)
      (Gpushim.load_pages t.gpushim logged);
    t.append e;
    pop_memloads t
  | _ -> ()

let prefix_pop t =
  pop_memloads t;
  match t.prefix with
  | [] -> None
  | e :: rest ->
    t.prefix <- rest;
    note_pop t;
    step_cost t;
    count t Metrics.Recovery_entries 1;
    Some e

let read t reg =
  match prefix_pop t with
  | Some (Recording.Reg_read { reg = r; value; verify = _ }) when r = reg ->
    (* The client replays the read against its GPU to keep read-sensitive
       hardware state moving; the driver consumes the logged value. *)
    ignore (Grt_gpu.Device.read_reg (Gpushim.device t.gpushim) reg);
    t.append
      (Recording.Reg_read { reg; value; verify = not (Regs.is_nondeterministic reg) });
    Sexpr.const value
  | Some e ->
    fail "expected read of %s, log has %s" (Regs.name reg)
      (match e with
      | Recording.Reg_write { reg; _ } -> "write " ^ Regs.name reg
      | Recording.Reg_read { reg; _ } -> "read " ^ Regs.name reg
      | Recording.Poll { reg; _ } -> "poll " ^ Regs.name reg
      | Recording.Wait_irq _ -> "wait_irq"
      | Recording.Mem_load _ -> "mem_load")
  | None -> fail "prefix exhausted mid-access (read %s)" (Regs.name reg)

let write t reg =
  match prefix_pop t with
  | Some (Recording.Reg_write { reg = r; value }) when r = reg ->
    t.sniff reg value;
    Grt_gpu.Device.write_reg (Gpushim.device t.gpushim) reg value;
    t.append (Recording.Reg_write { reg; value })
  | Some _ -> fail "log does not expect a write of %s here" (Regs.name reg)
  | None -> fail "prefix exhausted mid-access (write %s)" (Regs.name reg)

let poll t ~reg ~mask ~cond ~max_iters ~spin_ns =
  match prefix_pop t with
  | Some (Recording.Poll { reg = r; _ }) when r = reg ->
    t.append (Recording.Poll { reg; mask; cond; max_iters; spin_ns });
    (match Gpushim.run_poll t.gpushim ~reg ~mask ~cond ~max_iters ~spin_ns with
    | Some (iters, value) -> Backend.Poll_ok { iters; value }
    | None -> Backend.Poll_timeout)
  | Some _ -> fail "log does not expect a poll of %s here" (Regs.name reg)
  | None -> fail "prefix exhausted mid-access (poll %s)" (Regs.name reg)

let wait_irq t ~timeout_us =
  match prefix_pop t with
  | Some (Recording.Wait_irq _) -> (
    match Gpushim.wait_irq t.gpushim ~timeout_ns:(Int64.of_int (timeout_us * 1000)) with
    | Some got ->
      t.append (Recording.Wait_irq { line = got });
      (* Local status exchange, no network: the cloud's memory learns the
         GPU-written words directly. *)
      if t.cfg.Mode.continuous_validation then Grt_gpu.Mem.unprotect_all t.cloud_mem;
      Memsync.receive_payload t.downlink t.cloud_mem (Gpushim.upload_meta t.gpushim);
      Some got
    | None -> fail "no interrupt while replaying the log")
  | Some _ -> fail "log does not expect an interrupt wait here"
  | None -> fail "prefix exhausted mid-access (wait_irq)"
