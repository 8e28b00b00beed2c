type rail = Soc_base | Cpu_busy | Radio_tx | Radio_rx | Gpu_busy

let rail_power_w = function
  | Soc_base -> 1.3
  | Cpu_busy -> 1.6
  | Radio_tx -> 0.9
  | Radio_rx -> 0.7
  | Gpu_busy -> 2.4

let rail_index = function
  | Soc_base -> 0
  | Cpu_busy -> 1
  | Radio_tx -> 2
  | Radio_rx -> 3
  | Gpu_busy -> 4

let all_rails = [ Soc_base; Cpu_busy; Radio_tx; Radio_rx; Gpu_busy ]

(* [joules] holds direct [charge_j] deposits; time-integrated draw is kept
   as unboxed active-nanosecond counters and converted to joules only when
   read. The clock observer runs on every virtual-time advance — multiple
   times per simulated MMIO access — so it must not allocate or do float
   math. 63-bit ints hold ~292 simulated years of nanoseconds. *)
type t = { active : bool array; joules : float array; active_ns : int array }

let create clock =
  let t = { active = Array.make 5 false; joules = Array.make 5 0.; active_ns = Array.make 5 0 } in
  t.active.(rail_index Soc_base) <- true;
  Clock.on_advance_int clock (fun old_now new_now ->
      let dt = new_now - old_now in
      for i = 0 to 4 do
        if Array.unsafe_get t.active i then
          Array.unsafe_set t.active_ns i (Array.unsafe_get t.active_ns i + dt)
      done);
  t

let rail_j t r =
  let i = rail_index r in
  t.joules.(i) +. (rail_power_w r *. float_of_int t.active_ns.(i) *. 1e-9)

let set_active t rail on = t.active.(rail_index rail) <- on

let with_rail t rail f =
  let i = rail_index rail in
  let prev = t.active.(i) in
  t.active.(i) <- true;
  Fun.protect ~finally:(fun () -> t.active.(i) <- prev) f

let charge_j t rail j = t.joules.(rail_index rail) <- t.joules.(rail_index rail) +. j

let by_rail_j t = List.map (fun r -> (r, rail_j t r)) all_rails

let total_j t = List.fold_left (fun acc r -> acc +. rail_j t r) 0. all_rails

let reset t =
  Array.fill t.joules 0 5 0.;
  Array.fill t.active_ns 0 5 0
