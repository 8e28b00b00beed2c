type sym = {
  id : int;
  origin : string;
  mutable binding : int64 option;
  mutable speculative : bool;
}

type t =
  | Const of int64
  | Sym of sym
  | Bin of binop * t * t
  | Un of unop * t

and binop = Or | And | Xor | Add | Sub | Shl | Shr

and unop = Not

let const v = Const v
let of_int v = Const (Int64.of_int v)

(* Sym ids only correlate reads *within* a session (they never reach the
   wire or a signed blob), so one process-wide counter is enough. *)
let counter = ref 0

let fresh_sym ~origin =
  incr counter;
  { id = !counter; origin; binding = None; speculative = false }

let sym s = Sym s

let bind s v ~speculative =
  (match s.binding with
  | Some prev when not (Int64.equal prev v) ->
    invalid_arg
      (Printf.sprintf "Sexpr.bind: symbol #%d (%s) already bound to %Ld, got %Ld" s.id s.origin
         prev v)
  | _ -> ());
  s.binding <- Some v;
  s.speculative <- speculative

let confirm s = s.speculative <- false

let rebind s v =
  s.binding <- Some v;
  s.speculative <- false

let apply_bin op a b =
  match op with
  | Or -> Int64.logor a b
  | And -> Int64.logand a b
  | Xor -> Int64.logxor a b
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)

let rec eval = function
  | Const v -> Some v
  | Sym s -> s.binding
  | Bin (op, a, b) -> (
    match (eval a, eval b) with Some va, Some vb -> Some (apply_bin op va vb) | _ -> None)
  | Un (Not, a) -> Option.map Int64.lognot (eval a)

(* Build with constant folding so long chains of concrete math stay flat. *)
let bin op a b =
  match (a, b) with
  | Const va, Const vb -> Const (apply_bin op va vb)
  | _ -> Bin (op, a, b)

let logor a b = bin Or a b
let logand a b = bin And a b
let logxor a b = bin Xor a b
let add a b = bin Add a b
let sub a b = bin Sub a b
let shift_left a n = bin Shl a (of_int n)
let shift_right a n = bin Shr a (of_int n)
let lognot = function Const v -> Const (Int64.lognot v) | e -> Un (Not, e)

let force_exn e =
  match eval e with
  | Some v -> v
  | None -> failwith "Sexpr.force_exn: expression contains unbound symbols"

let is_concrete e = Option.is_some (eval e)

let unbound_syms e =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go = function
    | Const _ -> ()
    | Sym s ->
      if Option.is_none s.binding && not (Hashtbl.mem seen s.id) then begin
        Hashtbl.add seen s.id ();
        acc := s :: !acc
      end
    | Bin (_, a, b) ->
      go a;
      go b
    | Un (_, a) -> go a
  in
  go e;
  List.rev !acc

let rec speculative = function
  | Const _ -> false
  | Sym s -> s.speculative
  | Bin (_, a, b) -> speculative a || speculative b
  | Un (_, a) -> speculative a

let rec pp ppf = function
  | Const v -> Format.fprintf ppf "%#Lx" v
  | Sym s -> (
    match s.binding with
    | Some v -> Format.fprintf ppf "S%d=%#Lx" s.id v
    | None -> Format.fprintf ppf "S%d(%s)" s.id s.origin)
  | Bin (op, a, b) ->
    let ops =
      match op with
      | Or -> "|"
      | And -> "&"
      | Xor -> "^"
      | Add -> "+"
      | Sub -> "-"
      | Shl -> "<<"
      | Shr -> ">>"
    in
    Format.fprintf ppf "(%a %s %a)" pp a ops pp b
  | Un (Not, a) -> Format.fprintf ppf "~%a" pp a
