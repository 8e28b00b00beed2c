module Json = Grt_util.Json

type payload =
  | Degraded of { rate : float }
  | Healthy of { rate : float }
  | Link_down of { op : string; attempts : int; extra_s : float }
  | Retransmit of { op : string; attempt : int; outage : bool }
  | Window_stall of { inflight : int }
  | Profile_swap of { draining : int }
  | Commit of { site : string; accesses : int }
  | Speculate of { site : string; checks : int }
  | Rollback of { site : string; reg : string; predicted : int64; actual : int64 }
  | Replay_live of { replayed : int }
  | Evict of { label : string; client : int; blob_bytes : int }
  | Promote of { label : string; client : int }
  | Rearm of { label : string; client : int }

let shim_topic = "shim"

let payload_topic = function
  | Degraded _ | Healthy _ | Link_down _ | Retransmit _ | Window_stall _ | Profile_swap _ ->
    "link"
  | Commit _ | Speculate _ | Rollback _ | Replay_live _ -> shim_topic
  | Evict _ | Promote _ | Rearm _ -> "service"

(* Render the historical detail strings byte-for-byte: the stderr post-
   mortem dump (and any test asserting on it) predates the typed payloads. *)
let render = function
  | Degraded { rate } -> Printf.sprintf "degraded (retransmit rate %.0f%%)" (100. *. rate)
  | Healthy { rate } -> Printf.sprintf "healthy (retransmit rate %.0f%%)" (100. *. rate)
  | Link_down { op; attempts; extra_s } ->
    Printf.sprintf "link_down op=%s after %d attempts (+%.3fs)" op attempts extra_s
  | Retransmit { op; attempt; outage } ->
    Printf.sprintf "retransmit op=%s attempt=%d%s" op attempt (if outage then " (outage)" else "")
  | Window_stall { inflight } -> Printf.sprintf "window stall (%d in flight)" inflight
  | Profile_swap { draining } ->
    Printf.sprintf "profile swap: draining %d in-flight send(s)" draining
  | Commit { site; accesses } -> Printf.sprintf "commit site=%s accesses=%d" site accesses
  | Speculate { site; checks } -> Printf.sprintf "speculate site=%s checks=%d" site checks
  | Rollback { site; reg; predicted; actual } ->
    Printf.sprintf "rollback site=%s reg=%s predicted=%Lx actual=%Lx" site reg predicted actual
  | Replay_live { replayed } -> Printf.sprintf "replay complete (%d entries); going live" replayed
  | Evict { label; client; blob_bytes } ->
    Printf.sprintf "evict label=%s for=client-%d (%d bytes freed)" label client blob_bytes
  | Promote { label; client } ->
    Printf.sprintf "promote label=%s client-%d takes over recording" label client
  | Rearm { label; client } ->
    Printf.sprintf "rearm label=%s after failed recording by client-%d" label client

type event = { at_ns : int64; payload : payload }

let topic e = payload_topic e.payload
let detail e = render e.payload

(* The ring keeps events in flat parallel arrays: the virtual ns, a kind
   tag, and for the recorder's per-commit events (commit, speculate) the
   interned site key and an int argument, so those writes allocate nothing.
   Every other payload is stored as given in [boxed]. [event] values are
   built only when a reader asks for them. The arrays start empty and grow
   eightfold on demand up to [cap] (8, 64, 512, ...), so a session that
   logs a handful of events never pays for the full ring, and a recording
   that fills it copies an eighth of it, not all of it, on the way. Until
   they reach [cap] they only fill (oldest at 0, [next] = [total]); from
   then on the ring wraps. *)
let k_boxed = '\000'
let k_commit = '\001'
let k_speculate = '\002'

type t = {
  clock : Clock.t;
  cap : int;
  mutable ns : int array;
  mutable kinds : Bytes.t;
  mutable sites : string array;
  mutable args : int array;
  mutable boxed : payload array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 4096) clock =
  {
    clock;
    cap = max 1 capacity;
    ns = [||];
    kinds = Bytes.empty;
    sites = [||];
    args = [||];
    boxed = [||];
    next = 0;
    total = 0;
  }

let grow t len =
  let n = min t.cap (max 8 (8 * len)) in
  let extend a fill =
    let a' = Array.make n fill in
    Array.blit a 0 a' 0 len;
    a'
  in
  t.ns <- extend t.ns 0;
  t.sites <- extend t.sites "";
  t.args <- extend t.args 0;
  t.boxed <- extend t.boxed (Window_stall { inflight = 0 });
  let kinds = Bytes.make n k_boxed in
  Bytes.blit t.kinds 0 kinds 0 len;
  t.kinds <- kinds

(* Claim the slot of the next event, stamped with the current virtual time. *)
let slot t kind =
  let len = Array.length t.ns in
  if t.next = len && len < t.cap then grow t len;
  let i = t.next in
  t.next <- (if i + 1 = t.cap then 0 else i + 1);
  t.total <- t.total + 1;
  Array.unsafe_set t.ns i (Clock.now_int t.clock);
  Bytes.unsafe_set t.kinds i kind;
  i

let flat t kind site arg =
  let i = slot t kind in
  Array.unsafe_set t.sites i site;
  Array.unsafe_set t.args i arg

let commit t ~site ~accesses = flat t k_commit site accesses
let speculate t ~site ~checks = flat t k_speculate site checks

let event t payload =
  match payload with
  | Commit { site; accesses } -> commit t ~site ~accesses
  | Speculate { site; checks } -> speculate t ~site ~checks
  | _ -> Array.unsafe_set t.boxed (slot t k_boxed) payload

let count t = t.total
let retained t = min t.total t.cap
let capacity t = t.cap

let topic_at t i =
  if Bytes.get t.kinds i = k_boxed then payload_topic t.boxed.(i) else shim_topic

let event_at t i =
  let payload =
    match Bytes.get t.kinds i with
    | c when c = k_commit -> Commit { site = t.sites.(i); accesses = t.args.(i) }
    | c when c = k_speculate -> Speculate { site = t.sites.(i); checks = t.args.(i) }
    | _ -> t.boxed.(i)
  in
  { at_ns = Int64.of_int t.ns.(i); payload }

(* Slot of the [k]-th most recent retained event. *)
let nth_newest t k =
  let len = Array.length t.ns in
  (t.next - 1 - k + len) mod len

let recent ?topic:want t n =
  let kept = retained t in
  let matches i = match want with None -> true | Some w -> String.equal (topic_at t i) w in
  let rec go k collected acc =
    if collected >= n || k >= kept then List.rev acc
    else
      let i = nth_newest t k in
      if matches i then go (k + 1) (collected + 1) (event_at t i :: acc)
      else go (k + 1) collected acc
  in
  go 0 0 []

let all ?topic t = List.rev (recent ?topic t t.cap)

let topics t =
  let acc = ref [] in
  for k = retained t - 1 downto 0 do
    let tp = topic_at t (nth_newest t k) in
    if not (List.mem tp !acc) then acc := tp :: !acc
  done;
  List.rev !acc

let pp_event ppf e =
  Format.fprintf ppf "[%8.3f ms] %-12s %s" (Int64.to_float e.at_ns *. 1e-6) (topic e) (detail e)

let event_json e =
  let base kind fields =
    Json.Obj
      ((("ts_ns", Json.int64 e.at_ns) :: ("topic", Json.Str (topic e))
       :: ("kind", Json.Str kind) :: fields))
  in
  match e.payload with
  | Degraded { rate } -> base "degraded" [ ("rate", Json.float rate) ]
  | Healthy { rate } -> base "healthy" [ ("rate", Json.float rate) ]
  | Link_down { op; attempts; extra_s } ->
    base "link_down"
      [ ("op", Json.Str op); ("attempts", Json.int attempts); ("extra_s", Json.float extra_s) ]
  | Retransmit { op; attempt; outage } ->
    base "retransmit"
      [ ("op", Json.Str op); ("attempt", Json.int attempt); ("outage", Json.Bool outage) ]
  | Window_stall { inflight } -> base "window_stall" [ ("inflight", Json.int inflight) ]
  | Profile_swap { draining } -> base "profile_swap" [ ("draining", Json.int draining) ]
  | Commit { site; accesses } ->
    base "commit" [ ("site", Json.Str site); ("accesses", Json.int accesses) ]
  | Speculate { site; checks } ->
    base "speculate" [ ("site", Json.Str site); ("checks", Json.int checks) ]
  | Rollback { site; reg; predicted; actual } ->
    base "rollback"
      [
        ("site", Json.Str site);
        ("reg", Json.Str reg);
        ("predicted", Json.int64 predicted);
        ("actual", Json.int64 actual);
      ]
  | Replay_live { replayed } -> base "replay_live" [ ("replayed", Json.int replayed) ]
  | Evict { label; client; blob_bytes } ->
    base "evict"
      [ ("label", Json.Str label); ("client", Json.int client); ("blob_bytes", Json.int blob_bytes) ]
  | Promote { label; client } ->
    base "promote" [ ("label", Json.Str label); ("client", Json.int client) ]
  | Rearm { label; client } ->
    base "rearm" [ ("label", Json.Str label); ("client", Json.int client) ]

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Json.to_buffer b (event_json e);
      Buffer.add_char b '\n')
    (all t);
  Buffer.contents b
