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

(* [joules] holds direct [charge_j] deposits. Time-integrated draw is
   kept per rail as active nanoseconds, integrated when read rather than on
   every clock advance: [active_ns] holds the time of the rail's finished
   active spells, and an active rail adds [now - since] on top. Rails
   toggle rarely and the clock advances several times per simulated MMIO
   access, so the advance path carries no energy work at all. The sums are
   integer nanoseconds, so they equal the per-advance integration exactly.
   63-bit ints hold ~292 simulated years of nanoseconds. *)
type t = {
  clock : Clock.t;
  active : bool array;
  since : int array;  (* when an active rail was last switched on *)
  joules : float array;
  active_ns : int array;
}

let set_active t rail on =
  let i = rail_index rail in
  if t.active.(i) <> on then begin
    let now = Clock.now_int t.clock in
    if on then t.since.(i) <- now else t.active_ns.(i) <- t.active_ns.(i) + (now - t.since.(i));
    t.active.(i) <- on
  end

let create clock =
  let t =
    {
      clock;
      active = Array.make 5 false;
      since = Array.make 5 0;
      joules = Array.make 5 0.;
      active_ns = Array.make 5 0;
    }
  in
  set_active t Soc_base true;
  t

let active_ns t i =
  t.active_ns.(i) + if t.active.(i) then Clock.now_int t.clock - t.since.(i) else 0

let rail_j t r =
  let i = rail_index r in
  t.joules.(i) +. (rail_power_w r *. float_of_int (active_ns t i) *. 1e-9)

let with_rail t rail f =
  let prev = t.active.(rail_index rail) in
  set_active t rail true;
  Fun.protect ~finally:(fun () -> set_active t rail prev) f

let charge_j t rail j = t.joules.(rail_index rail) <- t.joules.(rail_index rail) +. j

let by_rail_j t = List.map (fun r -> (r, rail_j t r)) all_rails

let total_j t = List.fold_left (fun acc r -> acc +. rail_j t r) 0. all_rails

let reset t =
  Array.fill t.joules 0 5 0.;
  Array.fill t.active_ns 0 5 0;
  Array.fill t.since 0 5 (Clock.now_int t.clock)
