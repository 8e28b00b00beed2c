type t = {
  ms_name : string;
  bound_bytes : int option;
  mutable hits : int;
  mutable misses : int;
  mutable mismatches : int;
  mutable evictions : int;
  mutable resident : int;
  mutable resident_bytes : int;
}

(* A handful of memos per process, registered from module initialisers. *)
let handles : t list ref = ref []

let register ?bound_bytes name =
  match List.find_opt (fun t -> String.equal t.ms_name name) !handles with
  | Some t -> t
  | None ->
    let t =
      {
        ms_name = name;
        bound_bytes;
        hits = 0;
        misses = 0;
        mismatches = 0;
        evictions = 0;
        resident = 0;
        resident_bytes = 0;
      }
    in
    handles := t :: !handles;
    t

let name t = t.ms_name
let hit t = t.hits <- t.hits + 1
let miss t = t.misses <- t.misses + 1
let mismatch t = t.mismatches <- t.mismatches + 1

let dropped t ~entries ~bytes =
  t.evictions <- t.evictions + entries;
  t.resident <- t.resident - entries;
  t.resident_bytes <- t.resident_bytes - bytes

let added t ~bytes =
  t.resident <- t.resident + 1;
  t.resident_bytes <- t.resident_bytes + bytes

type snap = {
  s_hits : int;
  s_misses : int;
  s_mismatches : int;
  s_evictions : int;
  s_resident : int;
  s_resident_bytes : int;
  s_bound_bytes : int option;
}

let snapshot t =
  {
    s_hits = t.hits;
    s_misses = t.misses;
    s_mismatches = t.mismatches;
    s_evictions = t.evictions;
    s_resident = t.resident;
    s_resident_bytes = t.resident_bytes;
    s_bound_bytes = t.bound_bytes;
  }

let all () = List.sort (fun a b -> compare a.ms_name b.ms_name) !handles

let reset_counters () =
  List.iter
    (fun t ->
      t.hits <- 0;
      t.misses <- 0;
      t.mismatches <- 0;
      t.evictions <- 0)
    !handles

let snap_json s =
  Json.Obj
    ([
       ("hits", Json.int s.s_hits);
       ("misses", Json.int s.s_misses);
       ("mismatches", Json.int s.s_mismatches);
       ("evictions", Json.int s.s_evictions);
       ("resident", Json.int s.s_resident);
       ("resident_bytes", Json.int s.s_resident_bytes);
     ]
    @ match s.s_bound_bytes with Some b -> [ ("bound_bytes", Json.int b) ] | None -> [])

let to_json () =
  Json.Obj (List.map (fun t -> (t.ms_name, snap_json (snapshot t))) (all ()))
