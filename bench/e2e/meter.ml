(* Host-side measurement of one run: the public calls a workload makes
   (their count, host latency and allocation) and, in a traced run, a span
   around every call the benchmark makes into a layer.

   Spans are opened only by this benchmark, around calls into the public
   API of the libraries; nothing inside the program is instrumented. Each
   span records its name, start, end, parent, the public call it belongs to
   and the [Device.gpu_host_seconds] delta inside it. They stay in memory
   and are written out when the run ends. *)

let now_ns = Monotonic_clock.now
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let gpu_seconds = Grt_gpu.Device.gpu_host_seconds

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 at top level *)
  op : int;  (** public call the span belongs to; -1 outside any call *)
  start_ns : int64;
  stop_ns : int64;
  gpu_s : float;
  priced : bool;
      (** a direct re-execution that prices work done inside another span;
          kept in the trace, left out of the window's attribution *)
}

type t = {
  traced : bool;
  mutable spans : span list;  (** completed, newest first *)
  mutable stack : (int * bool) list;  (** open spans: id, priced *)
  mutable next_id : int;
  mutable op : int;  (** current public call, -1 between calls *)
  mutable next_op : int;
  mutable calls : (string * float) list;  (** kind and host seconds of each public call *)
  mutable call_s : float;
  mutable ops : int;
  mutable failed : int;
  mutable minor_words : float;
  notes : (string, float) Hashtbl.t;  (** summed per-layer counts *)
  mutable sim_latencies : float list;  (** virtual seconds per operation *)
  hists : Grt_sim.Hist.set;  (** the program's own histograms, merged *)
  mutable transfers : (string * string * float) list;
}

let create ~traced =
  {
    traced;
    spans = [];
    stack = [];
    next_id = 0;
    op = -1;
    next_op = 0;
    calls = [];
    call_s = 0.;
    ops = 0;
    failed = 0;
    minor_words = 0.;
    notes = Hashtbl.create 64;
    sim_latencies = [];
    hists = Grt_sim.Hist.create_set ();
    transfers = [];
  }

let note m key v =
  Hashtbl.replace m.notes key (v +. Option.value ~default:0. (Hashtbl.find_opt m.notes key))

let get m key = Option.value ~default:0. (Hashtbl.find_opt m.notes key)

(* Move [s] seconds of attributed self time from layer [src] to [dst]: how a
   directly priced share of an opaque call is reported under its own layer. *)
let transfer m ~src ~dst s = m.transfers <- (src, dst, s) :: m.transfers

let record_span m ~id ~name ~parent ~priced ~start_ns ~gpu0 =
  m.spans <-
    {
      id;
      name;
      parent;
      op = m.op;
      start_ns;
      stop_ns = now_ns ();
      gpu_s = gpu_seconds () -. gpu0;
      priced;
    }
    :: m.spans

let span ?(priced = false) m name f =
  if not m.traced then f ()
  else begin
    let id = m.next_id in
    m.next_id <- id + 1;
    let parent, priced =
      match m.stack with (p, pp) :: _ -> (p, priced || pp) | [] -> (-1, priced)
    in
    m.stack <- (id, priced) :: m.stack;
    let gpu0 = gpu_seconds () in
    let start_ns = now_ns () in
    let finish () =
      record_span m ~id ~name ~parent ~priced ~start_ns ~gpu0;
      m.stack <- List.tl m.stack
    in
    Fun.protect ~finally:finish f
  end

(* Seconds of the most recently closed span, ex-GPU; 0 when untraced. *)
let last_self m =
  match m.spans with
  | s :: _ when m.traced -> seconds_between s.start_ns s.stop_ns -. s.gpu_s
  | _ -> 0.

(* The benchmark's own work (input generation, output checks): a span in a
   traced run so that it is attributed, outside any timed call. *)
let bench m f = span m "bench" f

(* One call of the workload's public entry point, covering [ops] operations.
   [kind] (default [name]) groups calls that do the same work, such as
   replays of one network. Always timed; a top-level span when traced. An
   exception counts the operations as failed and is returned, not raised. *)
let call m ~name ?(kind = name) ~ops f =
  m.op <- m.next_op;
  m.next_op <- m.next_op + 1;
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = match span m name f with v -> Ok v | exception e -> Error e in
  let dt = seconds_between t0 (now_ns ()) in
  m.op <- -1;
  m.minor_words <- m.minor_words +. (Gc.minor_words () -. w0);
  m.calls <- (kind, dt) :: m.calls;
  m.call_s <- m.call_s +. dt;
  m.ops <- m.ops + ops;
  (match r with Error _ -> m.failed <- m.failed + ops | Ok _ -> ());
  r

(* ---- attribution ----

   A span's self time is its duration minus that of its children. The GPU
   seconds inside it (minus its children's) move to the "gpu.kernels"
   layer. Calls named "op.*" only group their children; their own self time
   is benchmark glue and goes to "bench". Priced spans are left out. *)

let layer_of name =
  if String.length name > 3 && String.sub name 0 3 = "op." then "bench" else name

let rollup m =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let d, g = Option.value ~default:(0., 0.) (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent
          (d +. seconds_between s.start_ns s.stop_ns, g +. s.gpu_s)
      end)
    m.spans;
  let layers = Hashtbl.create 16 in
  let add l s = Hashtbl.replace layers l (s +. Option.value ~default:0. (Hashtbl.find_opt layers l)) in
  let priced_s = ref 0. in
  List.iter
    (fun s ->
      let dur = seconds_between s.start_ns s.stop_ns in
      if s.priced then (if s.parent < 0 then priced_s := !priced_s +. dur)
      else begin
        let cd, cg = Option.value ~default:(0., 0.) (Hashtbl.find_opt children s.id) in
        let gpu = s.gpu_s -. cg in
        add (layer_of s.name) (dur -. cd -. gpu);
        add "gpu.kernels" gpu
      end)
    m.spans;
  List.iter
    (fun (src, dst, s) ->
      add src (-.s);
      add dst s)
    m.transfers;
  (layers, !priced_s)

(* Mean duration of the priced spans called [name], ex-GPU, and their count. *)
let priced_mean m name =
  let n, total =
    List.fold_left
      (fun (n, t) s ->
        if s.priced && String.equal s.name name then
          (n + 1, t +. seconds_between s.start_ns s.stop_ns -. s.gpu_s)
        else (n, t))
      (0, 0.) m.spans
  in
  (n, if n = 0 then 0. else total /. float_of_int n)

(* Chrome trace-event JSON (complete "X" events, µs), loadable in Perfetto. *)
let chrome_json m =
  let module J = Grt_util.Json in
  let spans = List.rev m.spans in
  let t0 = List.fold_left (fun t s -> if Int64.compare s.start_ns t < 0 then s.start_ns else t) Int64.max_int spans in
  let us a b = Int64.to_float (Int64.sub b a) /. 1e3 in
  J.Obj
    [
      ( "traceEvents",
        J.Arr
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("name", J.Str s.name);
                   ("cat", J.Str (if s.priced then "priced" else layer_of s.name));
                   ("ph", J.Str "X");
                   ("ts", J.float (us t0 s.start_ns));
                   ("dur", J.float (us s.start_ns s.stop_ns));
                   ("pid", J.int 1);
                   ("tid", J.int 1);
                   ( "args",
                     J.Obj
                       [
                         ("id", J.int s.id);
                         ("parent", J.int s.parent);
                         ("op", J.int s.op);
                         ("gpu_us", J.float (s.gpu_s *. 1e6));
                       ] );
                 ])
             spans) );
      ("displayTimeUnit", J.Str "ms");
    ]
