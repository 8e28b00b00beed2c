module Json = Grt_util.Json

type category =
  | Establish
  | Boot
  | Commit
  | Validate_speculation
  | Rollback_recovery
  | Poll_offload
  | Memsync_down
  | Memsync_up
  | Link_exchange
  | Svc_cache_lookup
  | Svc_coalesce_wait
  | Svc_turnstile_wait
  | Svc_record
  | Svc_serve_cached
  | Svc_evict
  | Svc_promotion

let category_name = function
  | Establish -> "establish"
  | Boot -> "boot"
  | Commit -> "commit"
  | Validate_speculation -> "validate-speculation"
  | Rollback_recovery -> "rollback-recovery"
  | Poll_offload -> "poll-offload"
  | Memsync_down -> "memsync-down"
  | Memsync_up -> "memsync-up"
  | Link_exchange -> "link-exchange"
  | Svc_cache_lookup -> "svc-cache-lookup"
  | Svc_coalesce_wait -> "svc-coalesce-wait"
  | Svc_turnstile_wait -> "svc-turnstile-wait"
  | Svc_record -> "svc-record"
  | Svc_serve_cached -> "svc-serve-cached"
  | Svc_evict -> "svc-evict"
  | Svc_promotion -> "svc-waiter-promotion"

let all_categories =
  [
    Establish; Boot; Commit; Validate_speculation; Rollback_recovery; Poll_offload;
    Memsync_down; Memsync_up; Link_exchange; Svc_cache_lookup; Svc_coalesce_wait;
    Svc_turnstile_wait; Svc_record; Svc_serve_cached; Svc_evict; Svc_promotion;
  ]

type span = {
  sp_name : string;
  sp_cat : category;
  sp_args : (string * string) list;
  sp_start_ns : int64;
  sp_stop_ns : int64;
  sp_self_ns : int64;
  sp_depth : int;
}

(* The begin/end interleaving is reconstructed at export time from per-span
   open/close sequence numbers (cheaper than keeping a second event list,
   and balanced by construction: each retained span contributes exactly one
   B and one E). *)
type closed = { c_span : span; c_open_seq : int; c_close_seq : int }

type frame = {
  f_name : string;
  f_cat : category;
  f_args : (string * string) list;
  f_start : int64;
  f_open_seq : int;
  f_depth : int;
  mutable f_child_ns : int64;
}

type marker = { m_name : string; m_cat : category; m_args : (string * string) list; m_at : int64; m_seq : int }

type t = {
  clock : Clock.t;
  limit : int;
  mutable seq : int;
  mutable stack : frame list;
  mutable closed : closed list; (* newest first *)
  mutable closed_count : int;
  mutable dropped : int;
  mutable markers : marker list; (* newest first *)
}

let create ?(limit = 1_000_000) clock =
  { clock; limit; seq = 0; stack = []; closed = []; closed_count = 0; dropped = 0; markers = [] }

let next_seq t =
  let s = t.seq in
  t.seq <- s + 1;
  s

let close t frame =
  (match t.stack with
  | top :: rest when top == frame -> t.stack <- rest
  | _ ->
    (* Defensive: frames unwind innermost-first via Fun.protect, so the
       frame must be on top; drop down to it if an observer misbehaved. *)
    let rec pop = function
      | top :: rest when top != frame -> pop rest
      | _ :: rest -> rest
      | [] -> []
    in
    t.stack <- pop t.stack);
  let stop = Clock.now_ns t.clock in
  let dur = Int64.sub stop frame.f_start in
  (match t.stack with
  | parent :: _ -> parent.f_child_ns <- Int64.add parent.f_child_ns dur
  | [] -> ());
  let c_close_seq = next_seq t in
  if t.closed_count >= t.limit then t.dropped <- t.dropped + 1
  else begin
    let span =
      {
        sp_name = frame.f_name;
        sp_cat = frame.f_cat;
        sp_args = frame.f_args;
        sp_start_ns = frame.f_start;
        sp_stop_ns = stop;
        sp_self_ns = Int64.sub dur frame.f_child_ns;
        sp_depth = frame.f_depth;
      }
    in
    t.closed <- { c_span = span; c_open_seq = frame.f_open_seq; c_close_seq } :: t.closed;
    t.closed_count <- t.closed_count + 1
  end

let with_span t ~cat ?(args = []) ~name f =
  let frame =
    {
      f_name = name;
      f_cat = cat;
      f_args = args;
      f_start = Clock.now_ns t.clock;
      f_open_seq = next_seq t;
      f_depth = List.length t.stack;
      f_child_ns = 0L;
    }
  in
  t.stack <- frame :: t.stack;
  Fun.protect ~finally:(fun () -> close t frame) f

let span_opt t ~cat ?args ~name f =
  match t with None -> f () | Some t -> with_span t ~cat ?args ~name f

let instant t ~cat ?(args = []) name =
  t.markers <-
    { m_name = name; m_cat = cat; m_args = args; m_at = Clock.now_ns t.clock; m_seq = next_seq t }
    :: t.markers

let instant_opt t ~cat ?args name =
  match t with None -> () | Some t -> instant t ~cat ?args name

let spans t = List.rev_map (fun c -> c.c_span) t.closed
let span_count t = t.closed_count
let dropped t = t.dropped
let open_depth t = List.length t.stack

type cat_stat = { total_ns : int64; self_ns : int64; spans : int }

let summary t =
  let table = Hashtbl.create 16 in
  List.iter
    (fun { c_span = sp; _ } ->
      let prev =
        match Hashtbl.find_opt table sp.sp_cat with
        | Some s -> s
        | None -> { total_ns = 0L; self_ns = 0L; spans = 0 }
      in
      Hashtbl.replace table sp.sp_cat
        {
          total_ns = Int64.add prev.total_ns (Int64.sub sp.sp_stop_ns sp.sp_start_ns);
          self_ns = Int64.add prev.self_ns sp.sp_self_ns;
          spans = prev.spans + 1;
        })
    t.closed;
  List.map
    (fun cat ->
      ( cat,
        match Hashtbl.find_opt table cat with
        | Some s -> s
        | None -> { total_ns = 0L; self_ns = 0L; spans = 0 } ))
    all_categories

(* ---- Chrome trace-event export ---- *)

let ts_us ns = Int64.to_float ns /. 1e3

let event_json ?(pid = 1) ?(tid = 1) ~ph ~name ~cat ~ts ~args () =
  let base =
    [
      ("name", Json.Str name);
      ("cat", Json.Str (category_name cat));
      ("ph", Json.Str ph);
      ("ts", Json.Num ts);
      ("pid", Json.int pid);
      ("tid", Json.int tid);
    ]
  in
  let base = if ph = "i" then base @ [ ("s", Json.Str "t") ] else base in
  if args = [] then Json.Obj base
  else Json.Obj (base @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) args)) ])

(* One tracer's B/E/i stream in seq order (well-nested by construction),
   timestamps shifted by [offset_ns] and stamped with [pid]/[tid]. *)
let track_events ?pid ?tid ?(offset_ns = 0L) t =
  let shift ns = ts_us (Int64.add offset_ns ns) in
  let events =
    List.concat_map
      (fun { c_span = sp; c_open_seq; c_close_seq } ->
        [
          ( c_open_seq,
            event_json ?pid ?tid ~ph:"B" ~name:sp.sp_name ~cat:sp.sp_cat
              ~ts:(shift sp.sp_start_ns) ~args:sp.sp_args () );
          ( c_close_seq,
            event_json ?pid ?tid ~ph:"E" ~name:sp.sp_name ~cat:sp.sp_cat
              ~ts:(shift sp.sp_stop_ns) ~args:[] () );
        ])
      t.closed
    @ List.map
        (fun m ->
          ( m.m_seq,
            event_json ?pid ?tid ~ph:"i" ~name:m.m_name ~cat:m.m_cat ~ts:(shift m.m_at)
              ~args:m.m_args () ))
        t.markers
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) events in
  List.map snd sorted

let to_chrome_json t = Json.to_string (Json.Arr (track_events t))

(* ---- Multi-track export (fleet runs) ---- *)

type track = {
  track_tid : int;
  track_name : string;
  track_offset_ns : int64;
  track_tracer : t;
}

let meta_event ~name ~pid ~tid ~value =
  Json.Obj
    [
      ("name", Json.Str name);
      ("ph", Json.Str "M");
      ("pid", Json.int pid);
      ("tid", Json.int tid);
      ("args", Json.Obj [ ("name", Json.Str value) ]);
    ]

let tracks_chrome_json ?(process_name = "grt-fleet") tracks =
  let pid = 1 in
  (* One thread_name metadata per distinct tid; a tid registered twice keeps
     its first name (a promoted waiter's record tracer rides the same track
     as its serve tracer). *)
  let seen = Hashtbl.create 64 in
  let names =
    List.filter_map
      (fun tr ->
        if Hashtbl.mem seen tr.track_tid then None
        else begin
          Hashtbl.add seen tr.track_tid ();
          Some (meta_event ~name:"thread_name" ~pid ~tid:tr.track_tid ~value:tr.track_name)
        end)
      tracks
  in
  let events =
    List.concat_map
      (fun tr ->
        track_events ~pid ~tid:tr.track_tid ~offset_ns:tr.track_offset_ns tr.track_tracer)
      tracks
  in
  Json.to_string
    (Json.Arr ((meta_event ~name:"process_name" ~pid ~tid:0 ~value:process_name :: names) @ events))

let seconds ns = Int64.to_float ns *. 1e-9

let summary_json t =
  Json.Obj
    (List.map
       (fun (cat, s) ->
         ( category_name cat,
           Json.Obj
             [
               ("total_s", Json.float (seconds s.total_ns));
               ("self_s", Json.float (seconds s.self_ns));
               ("spans", Json.int s.spans);
             ] ))
       (summary t))
