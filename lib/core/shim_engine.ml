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

let category_key = function
  | Init -> Metrics.Spec_cat_init
  | Interrupt -> Metrics.Spec_cat_interrupt
  | Power -> Metrics.Spec_cat_power
  | Polling -> Metrics.Spec_cat_polling
  | Other -> Metrics.Spec_cat_other

(* A speculated commit awaiting validation. Check [i] compares read
   [o_regs.(i)]'s prediction [o_predicted.(i)] with the client's answer
   [o_actual.(i)]; [o_syms] are the symbols the predictions bound. *)
type outstanding = {
  o_completion : int; (* ns, unboxed (paired with [Link.async_send_int]) *)
  o_dispatched : int; (* virtual time of the async dispatch, ns *)
  o_site : Wire.site;
  o_regs : int array;
  o_predicted : int64 array;
  o_actual : int64 array;
  o_syms : Sexpr.sym array;
  o_log_mark : int; (* length of the log before this commit's entries *)
}

(* The recording under construction, newest first, with O(1) length: the
   speculation machinery marks log positions on every commit, so length
   must not cost a traversal. Recovery appends to it through [log_push]. *)
type log = { mutable items : Recording.entry list; mutable len : int }

let log_push l e =
  l.items <- e :: l.items;
  l.len <- l.len + 1

(* The first [n] entries pushed (all of them when fewer), oldest first:
   the validated prefix a misprediction or a lost link resumes from
   (§4.2). *)
let log_prefix l n =
  let rec drop k items = if k <= 0 then items else drop (k - 1) (List.tl items) in
  List.rev (drop (l.len - n) l.items)

type thread = Main | Irq

type head = { mutable lo : int64; mutable hi : int64 }
(* Pending job-chain head, sniffed off js_head writes; shared between the
   live path and recovery replay (both go through [sniff]). *)

type t = {
  cfg : Mode.config;
  link : Link.t;
  gpushim : Gpushim.t;
  cloud_mem : Grt_gpu.Mem.t;
  metrics : Metrics.t;
  trace : Grt_sim.Trace.t option;
  tracer : Tracer.t option;
  hists : Hist.set option;
  history : Spec_history.t;
  wire_overhead : int;
  downlink : Memsync.t;
  recovery : Recovery.t;
  sniff : int -> int64 -> unit;
  head : head;
  log : log; (* appended to by [recovery] too *)
  main_queue : Wire.batch;
  irq_queue : Wire.batch;
  mutable cur_thread : thread;
  mutable hot_stack : string list;
  outstanding : outstanding Queue.t; (* oldest first *)
  mutable epoch_tainted : bool;
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
        Memsync.register_pt_root downlink ~root_pa:root;
        Memsync.register_pt_root (Gpushim.uplink gpushim) ~root_pa:root
      end
    end
  done;
  if reg = Regs.js_head_lo 0 || reg = Regs.js_head_next_lo 0 then head.lo <- v;
  if reg = Regs.js_head_hi 0 || reg = Regs.js_head_next_hi 0 then head.hi <- v

let create ~cfg ~link ~gpushim ~cloud_mem ~metrics ?trace ?tracer ?hists ?history ?sync_store
    ?(wire_overhead = 0) ?(replay_prefix = []) () =
  let downlink = Memsync.create ?shared:sync_store cfg in
  let head = { lo = 0L; hi = 0L } in
  let log = { items = []; len = 0 } in
  let sniff = sniff_root_and_head ~gpushim ~downlink ~head in
  let recovery =
    Recovery.create ~cfg ~gpushim ~cloud_mem ~downlink ~clock:(Link.clock link) ~metrics ?trace
      ~append:(log_push log) ~sniff replay_prefix
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
    main_queue = Wire.create_batch ();
    irq_queue = Wire.create_batch ();
    cur_thread = Main;
    hot_stack = [];
    outstanding = Queue.create ();
    epoch_tainted = false;
    inject_countdown = None;
    suppress_read_log = None;
    segment_marks = [];
    in_poll_loop = false;
  }

let count t key v = Metrics.add t.metrics key v

let batch t = match t.cur_thread with Main -> t.main_queue | Irq -> t.irq_queue

let current_hot t = match t.hot_stack with fn :: _ -> fn | [] -> "<cold>"

let category_of t ~is_poll =
  if is_poll then Polling
  else
    match t.hot_stack with
    | fn :: _
      when Strutil.has_prefix "kbase_gpuprops" fn
           || Strutil.has_prefix "kbase_pm_hw_issues" fn
           || Strutil.has_prefix "kbase_pm_init_hw" fn ->
      Init
    | fn :: _ when Strutil.contains_sub "irq" fn -> Interrupt
    | fn :: _ when Strutil.has_prefix "kbase_pm_" fn -> Power
    | _ -> Other

(* Speculation-policy shorthands over the shared history (§4.2). *)
let spec_k t = t.cfg.Mode.spec_history_k
let history_confident t (site : Wire.site) = Spec_history.confident t.history ~k:(spec_k t) site.id

let history_update t (site : Wire.site) values =
  Spec_history.observe t.history ~k:(spec_k t) site.id values

let history_forget t (site : Wire.site) = Spec_history.forget t.history site.id

let request_bytes t n = Wire.request_bytes ~overhead:t.wire_overhead n
let response_bytes t n = Wire.response_bytes ~overhead:t.wire_overhead n

let site_key t ~trigger b = Wire.site_key ~fn:(current_hot t) ~trigger b

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
let degraded_now t = Link.health t.link = Link.Degraded

let log_applied t b (actuals : int64 array) =
  let next_read = ref 0 in
  for i = 0 to Wire.length b - 1 do
    match Wire.get b i with
    | Wire.Qr { reg; _ } ->
      let value = actuals.(!next_read) in
      incr next_read;
      if t.suppress_read_log <> Some reg then
        log_push t.log
          (Recording.Reg_read { reg; value; verify = not (Regs.is_nondeterministic reg) })
    | Wire.Qw { reg; expr } ->
      (* By apply time every referenced symbol is bound. *)
      let value = match Sexpr.eval expr with Some v -> v | None -> 0L in
      log_push t.log (Recording.Reg_write { reg; value })
  done

(* ---- draining / validation ---- *)

(* Validate one outstanding speculative commit: wait until its response has
   landed, compare every prediction against the actual register value,
   confirm its symbols. Raises [Mispredict] — carrying the validated log
   prefix both sides replay locally (§4.2) — on the first wrong
   prediction. *)
let validate_body t o =
  Link.wait_until_int t.link o.o_completion;
  Hist.record_opt t.hists Hist.Spec_validate_ns
    (Grt_sim.Clock.now_int (Link.clock t.link) - o.o_dispatched);
  for i = 0 to Array.length o.o_regs - 1 do
    let predicted = o.o_predicted.(i) and actual = o.o_actual.(i) in
    if not (Int64.equal predicted actual) then begin
      let reg = o.o_regs.(i) and site = o.o_site.Wire.key in
      count t Metrics.Spec_mispredicts 1;
      Trace.event_opt t.trace (Trace.Rollback { site; reg = Regs.name reg; predicted; actual });
      (* Everything logged before this commit is validated truth; the
         recovery replays it locally on both sides. *)
      let valid_log = log_prefix t.log o.o_log_mark in
      raise (Mispredict { site; reg; predicted; actual; valid_log })
    end
  done;
  Array.iter Sexpr.confirm o.o_syms

let validate_one t o =
  match t.tracer with
  | None -> validate_body t o
  | Some _ ->
    Tracer.span_opt t.tracer ~cat:Tracer.Validate_speculation
      ~args:[ ("site", o.o_site.Wire.key) ]
      ~name:"validate" (fun () -> validate_body t o)

(* Validate everything outstanding, oldest first. A misprediction drops
   the rest of the queue with it: those commits were never validated and
   the attempt is over. *)
let drain t =
  (try
     while not (Queue.is_empty t.outstanding) do
       validate_one t (Queue.take t.outstanding)
     done
   with e ->
     Queue.clear t.outstanding;
     raise e);
  t.epoch_tainted <- false

(* Partial drain for the in-flight cap: validate the oldest outstanding
   commit only, in FIFO order. Unlike [drain] this leaves [epoch_tainted]
   alone — the epoch still holds unvalidated speculation. *)
let drain_oldest t =
  if not (Queue.is_empty t.outstanding) then validate_one t (Queue.take t.outstanding)

(* High-water mark of speculative commits outstanding at once. Only tracked
   on a windowed link, so default (stop-and-wait, unbounded) runs keep
   byte-identical counter dumps. *)
let note_inflight_depth t =
  if Link.window t.link > 1 then begin
    let depth = Queue.length t.outstanding in
    let hw = Metrics.get_int t.metrics Metrics.Spec_inflight_hw in
    if depth > hw then count t Metrics.Spec_inflight_hw (depth - hw)
  end

(* Ship a speculated commit asynchronously and queue it for validation when
   the response lands (shared by batch commits and offloaded polls). On a
   windowed link at most [Link.window] commits are outstanding: first make
   room by validating the oldest — a misprediction surfacing here aborts
   the current commit exactly like one caught at a full drain. A
   stop-and-wait link leaves the queue unbounded; only epoch and
   dependency stalls drain it. Once the request is on the wire, [syms]
   are bound to their predictions (speculatively), and the commit counts
   as speculated under its Fig. 8 [category]. *)
let dispatch_speculative t ~site ~category ~send ~recv ~regs ~predicted ~actual ~syms ~log_mark =
  let window = Link.window t.link in
  if window > 1 then
    while Queue.length t.outstanding >= window do
      drain_oldest t
    done;
  let dispatched = Grt_sim.Clock.now_int (Link.clock t.link) in
  let completion = Link.async_send_int t.link ~send_bytes:send ~recv_bytes:recv in
  for i = 0 to Array.length syms - 1 do
    Sexpr.bind syms.(i) predicted.(i) ~speculative:true
  done;
  Queue.add
    {
      o_completion = completion;
      o_dispatched = dispatched;
      o_site = site;
      o_regs = regs;
      o_predicted = predicted;
      o_actual = actual;
      o_syms = syms;
      o_log_mark = log_mark;
    }
    t.outstanding;
  note_inflight_depth t;
  count t Metrics.Commits_speculated 1;
  count t (category_key category) 1;
  Trace.speculate_opt t.trace ~site:site.Wire.key ~checks:(Array.length regs)
