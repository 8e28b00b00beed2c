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

let payload_topic = function
  | Degraded _ | Healthy _ | Link_down _ | Retransmit _ | Window_stall _ | Profile_swap _ ->
    "link"
  | Commit _ | Speculate _ | Rollback _ | Replay_live _ -> "shim"
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

(* The ring starts empty and doubles on demand up to [cap], so a session
   that logs a handful of events never pays for the full ring. Until the
   array reaches [cap] it only fills (oldest at 0, [next] = [total]); from
   then on it wraps. *)
type t = {
  clock : Clock.t;
  cap : int;
  mutable ring : event array;
  mutable next : int;
  mutable total : int;
}

let create ?(capacity = 4096) clock =
  { clock; cap = max 1 capacity; ring = [||]; next = 0; total = 0 }

let push t e =
  let len = Array.length t.ring in
  if t.next = len && len < t.cap then begin
    let ring = Array.make (min t.cap (max 8 (2 * len))) e in
    Array.blit t.ring 0 ring 0 len;
    t.ring <- ring
  end;
  t.ring.(t.next) <- e;
  t.next <- (if t.next + 1 = t.cap then 0 else t.next + 1);
  t.total <- t.total + 1

let event t payload = push t { at_ns = Clock.now_ns t.clock; payload }

let event_opt t payload = match t with Some t -> event t payload | None -> ()

let count t = t.total
let retained t = min t.total t.cap
let capacity t = t.cap

let recent ?topic:want t n =
  let len = Array.length t.ring in
  let kept = retained t in
  let matches e = match want with None -> true | Some w -> String.equal (topic e) w in
  let rec go i collected acc =
    if collected >= n || i >= kept then List.rev acc
    else
      let e = t.ring.((t.next - 1 - i + len) mod len) in
      if matches e then go (i + 1) (collected + 1) (e :: acc) else go (i + 1) collected acc
  in
  go 0 0 []

let all ?topic t = List.rev (recent ?topic t t.cap)

let topics t =
  List.fold_left
    (fun acc e ->
      let tp = topic e in
      if List.mem tp acc then acc else acc @ [ tp ])
    [] (all t)

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
