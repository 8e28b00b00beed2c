type world = Worlds.world

type route = To_normal | To_secure

type t = {
  worlds : Worlds.t;
  routes : (int, route) Hashtbl.t;
  names : (int, string) Hashtbl.t;
  mutable claims : int;
}

exception Denied of string

let create worlds = { worlds; routes = Hashtbl.create 8; names = Hashtbl.create 8; claims = 0 }

let register_interrupt t ~irq ~name =
  if Hashtbl.mem t.routes irq then invalid_arg "Monitor.register_interrupt: duplicate irq";
  Hashtbl.replace t.routes irq To_normal;
  Hashtbl.replace t.names irq name

let route_of t ~irq =
  match Hashtbl.find t.routes irq with
  | r -> r
  | exception Not_found -> invalid_arg (Printf.sprintf "Monitor: unknown irq %d" irq)

let require_secure caller what =
  match caller with
  | Worlds.Secure -> ()
  | Worlds.Normal -> raise (Denied ("normal world may not " ^ what))

let smc_claim_for_secure t ~caller ~resources ~irqs =
  require_secure caller "claim resources for the secure world";
  List.iter (fun name -> Worlds.set_secure t.worlds ~name true) resources;
  List.iter
    (fun irq ->
      ignore (route_of t ~irq);
      Hashtbl.replace t.routes irq To_secure)
    irqs;
  t.claims <- t.claims + 1

let smc_release t ~caller ~resources ~irqs =
  require_secure caller "release secure resources";
  List.iter (fun name -> Worlds.set_secure t.worlds ~name false) resources;
  List.iter
    (fun irq ->
      ignore (route_of t ~irq);
      Hashtbl.replace t.routes irq To_normal)
    irqs

let deliver_irq t ~irq =
  match route_of t ~irq with To_secure -> Worlds.Secure | To_normal -> Worlds.Normal

let claims t = t.claims
