(* Virtual-time multiplexing of cooperative sessions (ROADMAP item 1).

   Each task owns a private {!Clock} — its session-local timeline, so a
   session multiplexed here is bit-identical to the same session run alone —
   plus an arrival offset placing that timeline on the shared global one:

     global(task) = arrival_ns + Clock.now task.clock

   Blocking waits inside a task ({!Grt_net.Link} exchanges, rollback
   recompute) advance the task's clock and then call {!Clock.yield}, whose
   hook (installed at [spawn]) suspends the task's coroutine. The run loop
   always resumes the runnable task with the smallest global time (FIFO on
   ties, by spawn order), so sessions interleave in global virtual-time
   order and the interleaving is a pure function of the task set — no host
   clocks, no OS scheduling, bit-for-bit reproducible. *)

type status = Yielded | Done | Raised of exn * Printexc.raw_backtrace

type _ Effect.t += Yield : unit Effect.t

type task = {
  id : int;
  name : string;
  clock : Clock.t;
  arrival_ns : int;
  body : unit -> unit;
  mutable k : (unit, status) Effect.Deep.continuation option;
      (* the suspended rest of [body]; [None] until its first yield *)
  mutable st : [ `Ready | `Running | `Blocked | `Done | `Failed of exn * Printexc.raw_backtrace ];
  mutable wake_ns : int;  (* global ns at which the task next becomes runnable *)
}

(* Run [task] until its next [Yield], its return or an escaping exception.
   The deep handler installed by the first [match_with] stays in force
   across every [continue], so each of the three lands in the same
   [effc]/[retc]/[exnc] and becomes the value of whichever [resume] call
   was driving. *)
let resume task =
  let open Effect.Deep in
  match task.k with
  | Some k ->
    task.k <- None;
    continue k ()
  | None ->
    match_with
      (fun () ->
        task.body ();
        Done)
      ()
      {
        retc = (fun st -> st);
        exnc = (fun e -> Raised (e, Printexc.get_raw_backtrace ()));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Yield ->
              Some
                (fun (k : (a, status) continuation) ->
                  task.k <- Some k;
                  Yielded)
            | _ -> None);
      }

(* Binary min-heap on (wake_ns, seq): seq is a monotonic push counter, so
   equal wake times pop in push order — the deterministic FIFO tie-break. *)
module Heap = struct
  type entry = { key : int; seq : int; task : task }
  type h = { mutable a : entry array; mutable n : int; mutable seqc : int }

  let create () = { a = [||]; n = 0; seqc = 0 }

  let lt x y = x.key < y.key || (x.key = y.key && x.seq < y.seq)

  let push h task =
    let e = { key = task.wake_ns; seq = h.seqc; task } in
    h.seqc <- h.seqc + 1;
    if h.n = Array.length h.a then begin
      let cap = max 16 (2 * h.n) in
      let a' = Array.make cap e in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- e;
    h.n <- h.n + 1;
    (* sift up *)
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      lt h.a.(!i) h.a.(p)
    do
      let p = (!i - 1) / 2 in
      let tmp = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- tmp;
      i := p
    done

  let pop h =
    if h.n = 0 then None
    else begin
      let top = h.a.(0) in
      h.n <- h.n - 1;
      if h.n > 0 then begin
        h.a.(0) <- h.a.(h.n);
        (* sift down *)
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let s = ref !i in
          if l < h.n && lt h.a.(l) h.a.(!s) then s := l;
          if r < h.n && lt h.a.(r) h.a.(!s) then s := r;
          if !s = !i then continue := false
          else begin
            let tmp = h.a.(!s) in
            h.a.(!s) <- h.a.(!i);
            h.a.(!i) <- tmp;
            i := !s
          end
        done
      end;
      Some top.task
    end
end

type t = {
  heap : Heap.h;
  mutable tasks : task list;  (* newest first *)
  mutable running : task option;
  mutable global_ns : int;  (* high-water of resumed wake times *)
  mutable next_id : int;
  mutable yields : int;
  mutable switches : int;
  mutable on_switch : (int -> unit) option;
      (* observability hook: called at every context switch with the number
         of tasks still queued runnable; never advances any clock *)
}

type cond = { mutable waiters : task list (* newest first *) }

let create () =
  {
    heap = Heap.create ();
    tasks = [];
    running = None;
    global_ns = 0;
    next_id = 0;
    yields = 0;
    switches = 0;
    on_switch = None;
  }

let now_ns t = Int64.of_int t.global_ns
let yields t = t.yields
let switches t = t.switches
let runnable t = t.heap.Heap.n
let set_switch_observer t f = t.on_switch <- f

let task_global task = task.arrival_ns + Clock.now_int task.clock

let spawn t ?(arrival_ns = 0L) ~name ~clock body =
  if Int64.compare arrival_ns 0L < 0 then invalid_arg "Sched.spawn: negative arrival";
  (* Yield points record the task's new global position, then hand control
     to the run loop. The hook lives exactly as long as the task body so a
     clock outliving the scheduler is safe. *)
  let rec task =
    {
      id = t.next_id;
      name;
      clock;
      arrival_ns = Int64.to_int arrival_ns;
      body =
        (fun () ->
          Clock.set_yield_hook clock (fun () ->
              task.wake_ns <- task_global task;
              t.yields <- t.yields + 1;
              Effect.perform Yield);
          Fun.protect ~finally:(fun () -> Clock.clear_yield_hook clock) body);
      k = None;
      st = `Ready;
      wake_ns = Int64.to_int arrival_ns;
    }
  in
  t.next_id <- t.next_id + 1;
  t.tasks <- task :: t.tasks;
  Heap.push t.heap task;
  task

let new_cond () = { waiters = [] }

(* Suspend the running task until [signal_all]. The task leaves the ready
   heap (state [`Blocked]) and is re-inserted by the signaller. *)
let await t cond =
  match t.running with
  | None -> invalid_arg "Sched.await: no task is running"
  | Some task ->
    task.st <- `Blocked;
    cond.waiters <- task :: cond.waiters;
    Clock.yield task.clock;
    (* resumed: the signaller advanced our clock to the signal time *)
    ()

(* Wake every waiter at the signaller's current global time: waiting is real
   virtual time, so each waiter's session clock is advanced to the signal
   instant before it re-enters the ready heap. Waiters re-queue in FIFO
   await order. *)
let signal_all t cond =
  let wake_ns =
    match t.running with Some task -> task_global task | None -> t.global_ns
  in
  let ws = List.rev cond.waiters in
  cond.waiters <- [];
  List.iter
    (fun w ->
      w.st <- `Ready;
      Clock.advance_to_int w.clock (wake_ns - w.arrival_ns);
      w.wake_ns <- max (task_global w) wake_ns;
      Heap.push t.heap w)
    ws

exception Deadlock of string list
(* run ended with tasks still blocked on conditions nobody signals *)

let run t =
  let rec loop () =
    match Heap.pop t.heap with
    | None -> ()
    | Some task ->
      (match task.st with
      | `Ready ->
        if task.wake_ns > t.global_ns then t.global_ns <- task.wake_ns;
        task.st <- `Running;
        t.running <- Some task;
        t.switches <- t.switches + 1;
        (match t.on_switch with Some f -> f t.heap.Heap.n | None -> ());
        let status = resume task in
        t.running <- None;
        (match status with
        | Yielded ->
          (* [`Blocked] means the task parked itself on a cond mid-yield;
             the signaller will re-queue it. *)
          if task.st = `Running then begin
            task.st <- `Ready;
            Heap.push t.heap task
          end
        | Done -> task.st <- `Done
        | Raised (e, bt) -> task.st <- `Failed (e, bt))
      | _ -> ());
      loop ()
  in
  loop ();
  match List.filter (fun task -> task.st = `Blocked) t.tasks with
  | [] -> ()
  | blocked -> raise (Deadlock (List.rev_map (fun task -> task.name) blocked))

let failures t =
  List.rev
    (List.filter_map
       (fun task -> match task.st with `Failed (e, bt) -> Some (task.name, e, bt) | _ -> None)
       t.tasks)
