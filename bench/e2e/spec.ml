(* The metric declarations of BENCHMARK.json: the names, units and bounds
   every run must emit and every comparison judges by. *)

module Json = Grt_util.Json

type e2e = { name : string; unit_ : string; higher_better : bool; bound : float }
type layer = { lname : string; lunit : string }
type t = { end_to_end : e2e list; per_layer : layer list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load path =
  let ( let* ) = Result.bind in
  let* doc = Json.parse (read_file path) in
  let str k o = match Option.bind (Json.member k o) Json.to_str with Some s -> Ok s | None -> Error k in
  let list k =
    match Option.bind (Json.member k doc) Json.to_arr with Some l -> Ok l | None -> Error k
  in
  let rec all f = function
    | [] -> Ok []
    | x :: tl ->
      let* v = f x in
      let* rest = all f tl in
      Ok (v :: rest)
  in
  let* e2e = list "end_to_end" in
  let* per_layer = list "per_layer" in
  let* end_to_end =
    all
      (fun o ->
        let* name = str "name" o in
        let* unit_ = str "unit" o in
        let* better = str "better" o in
        match Option.bind (Json.member "bound" o) Json.to_num with
        | Some bound -> Ok { name; unit_; higher_better = String.equal better "higher"; bound }
        | None -> Error ("bound of " ^ name))
      e2e
  in
  let* per_layer =
    all
      (fun o ->
        let* lname = str "name" o in
        let* lunit = str "unit" o in
        Ok { lname; lunit })
      per_layer
  in
  Ok { end_to_end; per_layer }

let load_exn path =
  match load path with
  | Ok s -> s
  | Error e -> failwith (Printf.sprintf "%s: missing or malformed field: %s" path e)
