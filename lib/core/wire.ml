module Sexpr = Grt_util.Sexpr

type pending = Qr of { reg : int; sym : Sexpr.sym } | Qw of { reg : int; expr : Sexpr.t }

exception Need_drain

(* Scratch for the queue→wire lowering: the sym id of each read, in batch
   order. The lowering runs on every commit, so the buffer is reused across
   calls (grown amortized, never shrunk); queues are a handful of accesses,
   so write expressions resolve their reads by a backwards linear scan —
   the last read of a sym wins, matching the replace semantics of the
   hash-table this replaces. *)
let scratch_ids = ref (Array.make 64 0)

let to_wire queue =
  let n_reads = ref 0 in
  List.iter
    (function
      | Qr { sym; _ } ->
        let n = !n_reads in
        if n >= Array.length !scratch_ids then begin
          let bigger = Array.make (2 * Array.length !scratch_ids) 0 in
          Array.blit !scratch_ids 0 bigger 0 n;
          scratch_ids := bigger
        end;
        !scratch_ids.(n) <- sym.Sexpr.id;
        n_reads := n + 1
      | Qw _ -> ())
    queue;
  let ids = !scratch_ids in
  let n = !n_reads in
  let rec find_batch id i =
    if i < 0 then -1 else if Array.unsafe_get ids i = id then i else find_batch id (i - 1)
  in
  let rec conv = function
    | Sexpr.Const v -> Gpushim.Lit v
    | Sexpr.Sym s -> (
      match find_batch s.Sexpr.id (n - 1) with
      | i when i >= 0 -> Gpushim.Batch i
      | _ -> (
        match s.Sexpr.binding with
        | Some v when not s.Sexpr.speculative -> Gpushim.Lit v
        | Some _ -> raise Need_drain
        | None -> failwith "Wire: write references unbound symbol outside batch"))
    | Sexpr.Bin (op, a, b) -> Gpushim.Bop (op, conv a, conv b)
    | Sexpr.Un (Sexpr.Not, a) -> Gpushim.Unot (conv a)
  in
  List.map
    (function
      | Qr { reg; _ } -> Gpushim.W_read reg
      | Qw { reg; expr } -> Gpushim.W_write (reg, conv expr))
    queue

let request_bytes ~overhead n_accesses = 24 + (14 * n_accesses) + overhead

let response_bytes ~overhead n_reads = 16 + (8 * n_reads) + overhead

let read_syms queue =
  List.filter_map (function Qr { reg; sym } -> Some (reg, sym) | Qw _ -> None) queue

(* Site keys repeat heavily — the driver has a fixed set of commit sites —
   and building one allocates (printf, boxed 64-bit hash chain). Memoize
   the key string under a cheap native-int hash of the (fn, trigger,
   access-signature) triple. The hash can collide (fn and trigger are
   folded with no separator), so an entry stores its triple and a hit
   must match it; a mismatch recomputes and replaces the entry. The key is
   a pure function of the triple, so the memo is shared by every caller.
   The driver's sites are few; the cap only guards against a caller
   generating unbounded distinct sites. *)
type site = { fn : string; trigger : string; signature : int array; key : string }

let site_memo : (int, site) Hashtbl.t = Hashtbl.create 256

let int_fnv_prime = 0x100000001B3

let fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * int_fnv_prime
  done;
  !h

let access_code = function Qr { reg; _ } -> (reg * 2) + 1 | Qw { reg; _ } -> reg * 2

let rec same_signature signature i = function
  | [] -> i = Array.length signature
  | q :: rest ->
    i < Array.length signature
    && signature.(i) = access_code q
    && same_signature signature (i + 1) rest

let build_site_key ~fn ~trigger queue =
  let sig_hash =
    List.fold_left
      (fun acc q -> Grt_util.Hashing.combine acc (Int64.of_int (access_code q)))
      (Grt_util.Hashing.fnv1a_string fn)
      queue
  in
  Printf.sprintf "%s@%s#%Lx" fn trigger sig_hash

let site_key ~fn ~trigger queue =
  let h = fold_string (fold_string 0x3BF29CE484222325 fn) trigger in
  let h = List.fold_left (fun h q -> (h lxor access_code q) * int_fnv_prime) h queue in
  match Hashtbl.find site_memo h with
  | s when String.equal s.fn fn && String.equal s.trigger trigger && same_signature s.signature 0 queue
    ->
    s.key
  | _ | (exception Not_found) ->
    let key = build_site_key ~fn ~trigger queue in
    if Hashtbl.length site_memo >= 4096 then Hashtbl.reset site_memo;
    Hashtbl.replace site_memo h
      { fn; trigger; signature = Array.of_list (List.map access_code queue); key };
    key
