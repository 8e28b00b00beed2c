(* Shared engine state of the cloud-side recorder, plus the validation
   machinery that every dispatch path needs: the outstanding-speculation
   queue, its drain (which raises [Mispredict]), and the asynchronous
   dispatch of a speculated commit. The commit state machine itself lives
   in [Drivershim]; the memory-sync flow in [Sync_flow]. This module has
   no [.mli] on purpose — it is the internal state spine of the [grt]
   library, and its record fields are accessed directly by the modules
   that compose it. *)

module Backend = Grt_driver.Backend
module Regs = Grt_gpu.Regs
module Sexpr = Grt_util.Sexpr
module Strutil = Grt_util.Strutil
module Link = Grt_net.Link
module Metrics = Grt_sim.Metrics
module Trace = Grt_sim.Trace
module Tracer = Grt_sim.Tracer
module Hist = Grt_sim.Hist

exception
  Mispredict of {
    site : string;
    reg : int;
    predicted : int64;
    actual : int64;
    valid_log : Recording.entry list;
        (* interactions validated before the failing commit — the prefix
           both parties replay locally to fast-forward (§4.2) *)
  }

type category = Init | Interrupt | Power | Polling | Other

let category_name = function
  | Init -> "Init"
  | Interrupt -> "Interrupt"
  | Power -> "Power state"
  | Polling -> "Polling"
  | Other -> "Other"

let all_categories = [ Init; Interrupt; Power; Polling; Other ]

type outstanding = {
  o_completion : int; (* ns, unboxed (paired with [Link.async_send_int]) *)
  o_dispatched : int; (* virtual time of the async dispatch, ns *)
  o_site : string;
  o_checks : (int * int64 * int64) list; (* reg, predicted, actual *)
  o_syms : Sexpr.sym list;
  o_log_mark : int; (* length of the log before this commit's entries *)
}

type thread = Main | Irq

type head = { mutable lo : int64; mutable hi : int64 }
(* Pending job-chain head, sniffed off js_head writes; shared between the
   live path and recovery replay (both go through [sniff]). *)

type t = {
  cfg : Mode.config;
  link : Link.t;
  gpushim : Gpushim.t;
  cloud_mem : Grt_gpu.Mem.t;
  metrics : Metrics.t option;
  trace : Grt_sim.Trace.t option;
  tracer : Tracer.t option;
  hists : Hist.set option;
  history : Spec_history.t;
  wire_overhead : int;
  downlink : Memsync.t;
  recovery : Recovery.t;
  sniff : int -> int64 -> unit;
  head : head;
  log : Recording.log; (* newest first; shared with [recovery] *)
  main_queue : Wire.pending list ref;
  irq_queue : Wire.pending list ref;
  mutable cur_thread : thread;
  mutable hot_stack : string list;
  mutable outstanding : outstanding list; (* oldest first *)
  mutable epoch_tainted : bool;
  mutable commits_total : int;
  mutable commits_speculated : int;
  mutable spec_rejected_nondet : int;
  mutable accesses_total : int;
  mutable accesses_deferred : int;
  by_category : (category, int ref) Hashtbl.t;
  mutable inject_countdown : int option;
  mutable suppress_read_log : int option;
  mutable segment_marks : int list; (* log positions of layer boundaries, newest first *)
  mutable in_poll_loop : bool;
      (* §4.3: speculation on polling-loop iterations would require
         predicting the iteration count, which is nondeterministic — the
         shim never speculates on in-loop reads. *)
}

let sniff_root_and_head ~gpushim ~downlink ~head reg v =
  (* Track page-table roots (for metastate classification, on both the
     downlink and the client's uplink) and the pending job-chain head. *)
  for as_idx = 0 to Regs.as_count - 1 do
    if reg = Regs.as_transtab_lo as_idx then begin
      let root = Int64.logand v (Int64.lognot 0xFFFL) in
      if not (Int64.equal root 0L) then begin
        let fmt = (Grt_gpu.Device.sku (Gpushim.device gpushim)).Grt_gpu.Sku.pt_format in
        Memsync.register_pt_root downlink ~fmt ~root_pa:root;
        Memsync.register_pt_root (Gpushim.uplink gpushim) ~fmt ~root_pa:root
      end
    end
  done;
  if reg = Regs.js_head_lo 0 || reg = Regs.js_head_next_lo 0 then head.lo <- v;
  if reg = Regs.js_head_hi 0 || reg = Regs.js_head_next_hi 0 then head.hi <- v

let create ~cfg ~link ~gpushim ~cloud_mem ?metrics ?trace ?tracer ?hists ?history ?sync_store
    ?(wire_overhead = 0) ?(replay_prefix = []) () =
  let downlink = Memsync.create ?shared:sync_store cfg in
  let head = { lo = 0L; hi = 0L } in
  let log = Recording.new_log () in
  let sniff = sniff_root_and_head ~gpushim ~downlink ~head in
  let recovery =
    Recovery.create ~cfg ~gpushim ~cloud_mem ~downlink ~clock:(Link.clock link) ?metrics ?trace
      ~log ~sniff replay_prefix
  in
  {
    cfg;
    link;
    gpushim;
    cloud_mem;
    metrics;
    trace;
    tracer;
    hists;
    history = (match history with Some h -> h | None -> Spec_history.create ());
    wire_overhead;
    downlink;
    recovery;
    sniff;
    head;
    log;
    main_queue = ref [];
    irq_queue = ref [];
    cur_thread = Main;
    hot_stack = [];
    outstanding = [];
    epoch_tainted = false;
    commits_total = 0;
    commits_speculated = 0;
    spec_rejected_nondet = 0;
    accesses_total = 0;
    accesses_deferred = 0;
    by_category = Hashtbl.create 8;
    inject_countdown = None;
    suppress_read_log = None;
    segment_marks = [];
    in_poll_loop = false;
  }

let count t key v = match t.metrics with Some m -> Metrics.add m key v | None -> ()

let queue_ref t = match t.cur_thread with Main -> t.main_queue | Irq -> t.irq_queue

let current_hot t = match t.hot_stack with fn :: _ -> Some fn | [] -> None

let category_of t ~is_poll =
  if is_poll then Polling
  else
    match current_hot t with
    | Some fn
      when Strutil.has_prefix "kbase_gpuprops" fn
           || Strutil.has_prefix "kbase_pm_hw_issues" fn
           || Strutil.has_prefix "kbase_pm_init_hw" fn ->
      Init
    | Some fn when Strutil.contains_sub "irq" fn -> Interrupt
    | Some fn when Strutil.has_prefix "kbase_pm_" fn -> Power
    | Some _ | None -> Other

let bump_category t cat =
  match Hashtbl.find_opt t.by_category cat with
  | Some r -> incr r
  | None -> Hashtbl.replace t.by_category cat (ref 1)

(* Speculation-policy shorthands over the shared history (§4.2). *)
let spec_k t = t.cfg.Mode.spec_history_k
let history_confident t site = Spec_history.confident t.history ~k:(spec_k t) site
let history_update t site values = Spec_history.observe t.history ~k:(spec_k t) site values
let history_forget t site = Spec_history.forget t.history site

let request_bytes t n = Wire.request_bytes ~overhead:t.wire_overhead n
let response_bytes t n = Wire.response_bytes ~overhead:t.wire_overhead n

let site_key t ~trigger queue =
  Wire.site_key ~fn:(Option.value ~default:"<cold>" (current_hot t)) ~trigger queue

let apply_now t wire = Gpushim.apply_accesses t.gpushim wire

let maybe_inject t (actuals : int64 array) =
  match t.inject_countdown with
  | Some 0 when Array.length actuals > 0 ->
    t.inject_countdown <- None;
    count t Metrics.Fault_injected 1;
    let flipped = Array.copy actuals in
    flipped.(0) <- Int64.logxor flipped.(0) 0x1L;
    flipped
  | Some 0 -> actuals (* hold until a commit that actually carries a read *)
  | Some n ->
    t.inject_countdown <- Some (n - 1);
    actuals
  | None -> actuals

(* Degraded-mode policy: while the link reports a persistently lossy
   channel, speculation is suspended and commits go out synchronously —
   optimistic work is cheap to start but expensive to roll back when the
   retransmitting channel keeps stretching validation latencies. *)
let degraded_now t = t.cfg.Mode.degraded_mode && Link.health t.link = Link.Degraded

let log_applied t queue (actuals : int64 array) =
  let rec go queue i =
    match queue with
    | [] -> ()
    | Wire.Qr { reg; _ } :: rest ->
      assert (i < Array.length actuals);
      if t.suppress_read_log <> Some reg then
        Recording.log_push t.log
          (Recording.Reg_read
             { reg; value = actuals.(i); verify = not (Regs.is_nondeterministic reg) });
      go rest (i + 1)
    | Wire.Qw { reg; expr } :: rest ->
      (* By apply time every referenced symbol is bound. *)
      let value = match Sexpr.eval expr with Some v -> v | None -> 0L in
      Recording.log_push t.log (Recording.Reg_write { reg; value });
      go rest i
  in
  go queue 0

(* ---- draining / validation ---- *)

(* Validate one outstanding speculative commit: wait until its response has
   landed, compare every prediction against the actual register value,
   confirm its symbols. Raises [Mispredict] — carrying the validated log
   prefix both sides replay locally (§4.2) — on the first wrong
   prediction. *)
let validate_one t o =
  Tracer.span_opt t.tracer ~cat:Tracer.Validate_speculation
    ~args:[ ("site", o.o_site) ]
    ~name:"validate" (fun () ->
      Link.wait_until_int t.link o.o_completion;
      Hist.record_opt t.hists Hist.Spec_validate_ns
        (Grt_sim.Clock.now_int (Link.clock t.link) - o.o_dispatched);
      List.iter
        (fun (reg, predicted, actual) ->
          if not (Int64.equal predicted actual) then begin
            count t Metrics.Spec_mispredicts 1;
            Trace.event_opt t.trace
              (Trace.Rollback { site = o.o_site; reg = Regs.name reg; predicted; actual });
            (* Everything logged before this commit is validated truth; the
               recovery replays it locally on both sides. *)
            let all = List.rev t.log.Recording.items in
            let rec take n = function
              | [] -> []
              | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
            in
            raise
              (Mispredict
                 { site = o.o_site; reg; predicted; actual; valid_log = take o.o_log_mark all })
          end)
        o.o_checks;
      List.iter Sexpr.confirm o.o_syms)

let drain t =
  let pending = t.outstanding in
  t.outstanding <- [];
  List.iter (validate_one t) pending;
  t.epoch_tainted <- false

(* Partial drain for the pipelining cap: validate the oldest outstanding
   commit only, in FIFO order. Unlike [drain] this leaves [epoch_tainted]
   alone — the epoch still holds unvalidated speculation. *)
let drain_oldest t =
  match t.outstanding with
  | [] -> ()
  | o :: rest ->
    t.outstanding <- rest;
    validate_one t o

(* High-water mark of speculative commits outstanding at once. Only tracked
   when pipelining is configured, so default (stop-and-wait, unbounded)
   runs keep byte-identical counter dumps. *)
let note_inflight_depth t =
  if t.cfg.Mode.max_inflight > 0 || Link.window t.link > 1 then
    match t.metrics with
    | Some m ->
      let depth = List.length t.outstanding in
      let hw = Metrics.get_int m Metrics.Spec_inflight_hw in
      if depth > hw then Metrics.add m Metrics.Spec_inflight_hw (depth - hw)
    | None -> ()

(* Ship a speculated commit asynchronously and queue it for validation when
   the response lands (shared by batch commits and offloaded polls). With
   [Mode.max_inflight > 0], first make room by validating the oldest
   outstanding commits — a misprediction surfacing here aborts the current
   commit exactly like one caught at a full drain. *)
let dispatch_speculative t ~site ~send ~recv ~checks ~syms ~log_mark ~bind =
  let cap = t.cfg.Mode.max_inflight in
  if cap > 0 then
    while List.length t.outstanding >= cap do
      drain_oldest t
    done;
  let dispatched = Grt_sim.Clock.now_int (Link.clock t.link) in
  let completion = Link.async_send_int t.link ~send_bytes:send ~recv_bytes:recv in
  bind ();
  t.outstanding <-
    t.outstanding
    @ [
        {
          o_completion = completion;
          o_dispatched = dispatched;
          o_site = site;
          o_checks = checks;
          o_syms = syms;
          o_log_mark = log_mark;
        };
      ];
  note_inflight_depth t;
  t.commits_speculated <- t.commits_speculated + 1;
  count t Metrics.Commits_speculated 1;
  Trace.event_opt t.trace (Trace.Speculate { site; checks = List.length checks })
