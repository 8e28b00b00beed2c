type world = Normal | Secure

type violation = { world : world; what : string }

exception Access_denied of violation

type t = {
  resources : (string, bool ref) Hashtbl.t;
  mutable violations : violation list;
}

let create () = { resources = Hashtbl.create 8; violations = [] }

let add_resource t ~name ~secure =
  if Hashtbl.mem t.resources name then invalid_arg "Worlds.add_resource: duplicate";
  Hashtbl.replace t.resources name (ref secure)

let cell t name =
  match Hashtbl.find_opt t.resources name with
  | Some c -> c
  | None -> invalid_arg ("Worlds: unknown resource " ^ name)

let set_secure t ~name v = cell t name := v

let is_secure t ~name = !(cell t name)

let check_access t world ~name =
  match world with
  | Secure -> ignore (cell t name)
  | Normal ->
    if !(cell t name) then begin
      let v = { world; what = name } in
      t.violations <- v :: t.violations;
      raise (Access_denied v)
    end

let violations t = t.violations
