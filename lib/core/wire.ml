module Sexpr = Grt_util.Sexpr
module Itbl = Hashtbl.Make (Int)

type pending = Qr of { reg : int; sym : Sexpr.sym } | Qw of { reg : int; expr : Sexpr.t }

(* One thread's deferral queue: the accesses in program order, and beside
   them the queue's reads (register and symbol) in batch order, so a
   commit reads batch position [i] by index. All three arrays grow by
   doubling and are reused across commits. *)
type batch = {
  mutable items : pending array;
  mutable len : int;
  mutable read_regs : int array;
  mutable read_syms : Sexpr.sym array;
  mutable n_reads : int;
}

let placeholder = Qw { reg = 0; expr = Sexpr.Const 0L }

let create_batch () =
  { items = Array.make 16 placeholder; len = 0; read_regs = [||]; read_syms = [||]; n_reads = 0 }

let length b = b.len
let n_reads b = b.n_reads
let get b i = b.items.(i)
let read_reg b i = b.read_regs.(i)
let read_sym b i = b.read_syms.(i)
let read_regs b = Array.sub b.read_regs 0 b.n_reads
let read_syms b = Array.sub b.read_syms 0 b.n_reads

let grow a fill =
  let bigger = Array.make (max 16 (2 * Array.length a)) fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

let push b q =
  if b.len = Array.length b.items then b.items <- grow b.items placeholder;
  b.items.(b.len) <- q;
  b.len <- b.len + 1

let push_read b reg sym =
  push b (Qr { reg; sym });
  let i = b.n_reads in
  if i = Array.length b.read_regs then begin
    b.read_regs <- grow b.read_regs 0;
    b.read_syms <- grow b.read_syms sym
  end;
  b.read_regs.(i) <- reg;
  b.read_syms.(i) <- sym;
  b.n_reads <- i + 1

let push_write b reg expr = push b (Qw { reg; expr })

(* Slots past the length keep their last contents until overwritten: at
   most the longest batch's accesses stay reachable per thread. *)
let clear b =
  b.len <- 0;
  b.n_reads <- 0

exception Need_drain

(* Queues are a handful of accesses, so a write expression resolves each
   symbol by a backwards scan of the batch's reads: the last read of a sym
   wins. *)
let rec find_read b id i =
  if i < 0 then -1
  else if (Array.unsafe_get b.read_syms i).Sexpr.id = id then i
  else find_read b id (i - 1)

let rec conv b = function
  | Sexpr.Const v -> Gpushim.Lit v
  | Sexpr.Sym s -> (
    match find_read b s.Sexpr.id (b.n_reads - 1) with
    | i when i >= 0 -> Gpushim.Batch i
    | _ -> (
      match s.Sexpr.binding with
      | Some v when not s.Sexpr.speculative -> Gpushim.Lit v
      | Some _ -> raise Need_drain
      | None -> failwith "Wire: write references unbound symbol outside batch"))
  | Sexpr.Bin (op, x, y) -> Gpushim.Bop (op, conv b x, conv b y)
  | Sexpr.Un (Sexpr.Not, x) -> Gpushim.Unot (conv b x)

let lower b = function
  | Qr { reg; _ } -> Gpushim.W_read reg
  | Qw { reg; expr } -> Gpushim.W_write (reg, conv b expr)

let to_wire b =
  let wire = Array.make b.len (lower b b.items.(0)) in
  for i = 1 to b.len - 1 do
    wire.(i) <- lower b b.items.(i)
  done;
  wire

let request_bytes ~overhead n_accesses = 24 + (14 * n_accesses) + overhead

let response_bytes ~overhead n_reads = 16 + (8 * n_reads) + overhead

(* ---- interned sites ----

   A site is named by its key string; every distinct key gets one int id,
   for the life of the process, so a speculation history shared across
   sessions (and across the recorders of a service) indexes the same site
   the same way. The intern table is never flushed: an id must not move
   while any history holds it. *)
type site = { id : int; key : string }

let interned : (string, site) Hashtbl.t = Hashtbl.create 256

let intern key =
  match Hashtbl.find interned key with
  | s -> s
  | exception Not_found ->
    let s = { id = Hashtbl.length interned; key } in
    Hashtbl.add interned key s;
    s

(* Commit sites repeat heavily (the driver has a fixed set), and building
   a key string allocates (printf, boxed 64-bit hash chain). So the site
   is memoized under a cheap native-int hash of the (fn, trigger,
   access-signature) triple. The hash can collide (fn and trigger are
   folded with no separator), so an entry stores its triple and a hit must
   match it; a mismatch recomputes and replaces the entry. The cap only
   guards against a caller generating unbounded distinct triples; a flush
   costs a rebuild, never an id. *)
type memo_entry = { fn : string; trigger : string; signature : int array; site : site }

let site_memo : memo_entry Itbl.t = Itbl.create 256

let int_fnv_prime = 0x100000001B3

let fold_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * int_fnv_prime
  done;
  !h

let access_code = function Qr { reg; _ } -> (reg * 2) + 1 | Qw { reg; _ } -> reg * 2

let rec same_from signature b i =
  i = b.len || (signature.(i) = access_code b.items.(i) && same_from signature b (i + 1))

let same_signature signature b = Array.length signature = b.len && same_from signature b 0

let build_site_key ~fn ~trigger signature =
  let sig_hash =
    Array.fold_left
      (fun acc code -> Grt_util.Hashing.combine acc (Int64.of_int code))
      (Grt_util.Hashing.fnv1a_string fn)
      signature
  in
  Printf.sprintf "%s@%s#%Lx" fn trigger sig_hash

let remember memo h entry site =
  if Itbl.length memo >= 4096 then Itbl.reset memo;
  Itbl.replace memo h entry;
  site

let site_key ~fn ~trigger b =
  let h = ref (fold_string (fold_string 0x3BF29CE484222325 fn) trigger) in
  for i = 0 to b.len - 1 do
    h := (!h lxor access_code b.items.(i)) * int_fnv_prime
  done;
  match Itbl.find site_memo !h with
  | e when String.equal e.fn fn && String.equal e.trigger trigger && same_signature e.signature b ->
    e.site
  | _ | (exception Not_found) ->
    let signature = Array.init b.len (fun i -> access_code b.items.(i)) in
    let site = intern (build_site_key ~fn ~trigger signature) in
    remember site_memo !h { fn; trigger; signature; site } site

type poll_entry = { p_reg : int; p_mask : int64; p_set : bool; p_site : site }

let poll_memo : poll_entry Itbl.t = Itbl.create 64

let poll_site ~reg ~mask ~cond =
  let set = match cond with Grt_gpu.Regs.Bits_set -> true | Bits_clear -> false in
  let h = (((reg * int_fnv_prime) lxor Int64.to_int mask) * int_fnv_prime) lxor Bool.to_int set in
  match Itbl.find poll_memo h with
  | e when e.p_reg = reg && Int64.equal e.p_mask mask && e.p_set = set -> e.p_site
  | _ | (exception Not_found) ->
    let key =
      Printf.sprintf "poll:%s:%Lx:%s" (Grt_gpu.Regs.name reg) mask (if set then "set" else "clear")
    in
    let site = intern key in
    remember poll_memo h { p_reg = reg; p_mask = mask; p_set = set; p_site = site } site
