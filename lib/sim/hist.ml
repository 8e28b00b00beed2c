module Json = Grt_util.Json

let buckets = 63

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : int64;
  mutable min_v : int;
  mutable max_v : int;
}

let create () = { counts = Array.make buckets 0; count = 0; sum = 0L; min_v = 0; max_v = 0 }

(* Bucket 0 holds v <= 0; bucket i >= 1 holds 2^(i-1) <= v < 2^i. *)
let bucket_index v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      incr i;
      v := !v lsr 1
    done;
    min !i (buckets - 1)
  end

let observe t v =
  t.counts.(bucket_index v) <- t.counts.(bucket_index v) + 1;
  t.count <- t.count + 1;
  t.sum <- Int64.add t.sum (Int64.of_int (max 0 v));
  if t.count = 1 then begin
    t.min_v <- v;
    t.max_v <- v
  end
  else begin
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v
  end

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v
let bucket_count t i = t.counts.(i)

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i <= 0 then 0 else (1 lsl i) - 1

let quantile t q =
  if t.count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    (* Fractional rank over the observed samples. *)
    let rank = q *. float_of_int (t.count - 1) in
    let target = int_of_float (Float.round rank) in
    let rec find i cum =
      if i >= buckets then float_of_int t.max_v
      else begin
        let c = t.counts.(i) in
        if target < cum + c && c > 0 then begin
          (* Linear interpolation by position inside the bucket's range. *)
          let lo = float_of_int (bucket_lo i) and hi = float_of_int (bucket_hi i) in
          let frac = if c = 1 then 0. else float_of_int (target - cum) /. float_of_int (c - 1) in
          lo +. ((hi -. lo) *. frac)
        end
        else find (i + 1) (cum + c)
      end
    in
    let v = find 0 0 in
    Float.max (float_of_int (min_value t)) (Float.min (float_of_int (max_value t)) v)
  end

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  if src.count > 0 then begin
    if into.count = 0 then begin
      into.min_v <- src.min_v;
      into.max_v <- src.max_v
    end
    else begin
      if src.min_v < into.min_v then into.min_v <- src.min_v;
      if src.max_v > into.max_v then into.max_v <- src.max_v
    end;
    into.count <- into.count + src.count;
    into.sum <- Int64.add into.sum src.sum
  end

let summary_json t =
  Json.Obj
    [
      ("count", Json.int t.count);
      ("sum", Json.int64 t.sum);
      ("min", Json.int (min_value t));
      ("max", Json.int (max_value t));
      ("p50", Json.float (quantile t 0.50));
      ("p90", Json.float (quantile t 0.90));
      ("p99", Json.float (quantile t 0.99));
    ]

(* ---- the session registry ---- *)

type key =
  | Rtt_ns
  | Commit_accesses
  | Spec_validate_ns
  | Rollback_depth
  | Gbn_span
  | Sync_down_wire
  | Sync_up_wire
  | Sync_page_wire
  | Svc_turnaround_us
  | Svc_ttfb_us
  | Svc_coalesce_wait_us
  | Svc_turnstile_wait_us
  | Sched_runnable

let key_name = function
  | Rtt_ns -> "link.rtt_ns"
  | Commit_accesses -> "commit.accesses"
  | Spec_validate_ns -> "spec.validate_ns"
  | Rollback_depth -> "rollback.depth"
  | Gbn_span -> "gbn.span"
  | Sync_down_wire -> "sync.down_wire_bytes"
  | Sync_up_wire -> "sync.up_wire_bytes"
  | Sync_page_wire -> "sync.page_wire_bytes"
  | Svc_turnaround_us -> "svc.turnaround_us"
  | Svc_ttfb_us -> "svc.ttfb_us"
  | Svc_coalesce_wait_us -> "svc.coalesce_wait_us"
  | Svc_turnstile_wait_us -> "svc.turnstile_wait_us"
  | Sched_runnable -> "sched.runnable"

let all_keys =
  [
    Rtt_ns; Commit_accesses; Spec_validate_ns; Rollback_depth; Gbn_span; Sync_down_wire;
    Sync_up_wire; Sync_page_wire; Svc_turnaround_us; Svc_ttfb_us; Svc_coalesce_wait_us;
    Svc_turnstile_wait_us; Sched_runnable;
  ]

let key_index = function
  | Rtt_ns -> 0
  | Commit_accesses -> 1
  | Spec_validate_ns -> 2
  | Rollback_depth -> 3
  | Gbn_span -> 4
  | Sync_down_wire -> 5
  | Sync_up_wire -> 6
  | Sync_page_wire -> 7
  | Svc_turnaround_us -> 8
  | Svc_ttfb_us -> 9
  | Svc_coalesce_wait_us -> 10
  | Svc_turnstile_wait_us -> 11
  | Sched_runnable -> 12

let () = List.iteri (fun i k -> assert (key_index k = i)) all_keys

(* One cell per key, filled when the key is first observed or read: a
   served session sees only its link's keys, so an untouched key costs one
   word. *)
type set = t option array

let create_set () = Array.make (List.length all_keys) None

let get (s : set) k =
  let i = key_index k in
  match s.(i) with
  | Some h -> h
  | None ->
    let h = create () in
    s.(i) <- Some h;
    h

let record s k v = observe (get s k) v

let merge_set ~into (src : set) =
  List.iter
    (fun k -> Option.iter (fun h -> merge ~into:(get into k) h) src.(key_index k))
    all_keys

(* An untouched key reads as this empty histogram, so every key is listed. *)
let empty = create ()

let set_json (s : set) =
  let summary k = summary_json (Option.value s.(key_index k) ~default:empty) in
  Json.Obj (List.map (fun k -> (key_name k, summary k)) all_keys)
