(* Virtual time is kept as an unboxed [int] nanosecond counter (63 bits ≈
   146 years, so overflow is not a concern). The clock advance is the
   hottest operation in the whole simulation — every MMIO access, poll spin
   and replayer step goes through it — and an [int64] counter would box on
   every add and compare. The public API stays [int64]; the [_int] variants
   below let same-process hot paths (the device's event queue, the energy
   integrator) avoid the boxing entirely. *)

type t = { mutable now : int; mutable observers : (int -> int -> unit) list }

let create () = { now = 0; observers = [] }

let now_int t = t.now

let now_ns t = Int64.of_int t.now

let now_s t = float_of_int t.now *. 1e-9

let advance_int t d =
  if d < 0 then invalid_arg "Clock.advance_ns: negative delta";
  if d > 0 then begin
    let old_now = t.now in
    t.now <- old_now + d;
    List.iter (fun f -> f old_now t.now) t.observers
  end

let advance_ns t d = advance_int t (Int64.to_int d)

let advance_s t s =
  if s < 0. then invalid_arg "Clock.advance_s: negative delta";
  advance_ns t (Int64.of_float (s *. 1e9))

let advance_to_int t deadline = if deadline > t.now then advance_int t (deadline - t.now)

let advance_to t deadline = advance_to_int t (Int64.to_int deadline)

let on_advance_int t f = t.observers <- f :: t.observers

type span = { start_ns : int64; stop_ns : int64 }

let time t f =
  let start_ns = now_ns t in
  let v = f () in
  (v, { start_ns; stop_ns = now_ns t })

let span_s { start_ns; stop_ns } = Int64.to_float (Int64.sub stop_ns start_ns) *. 1e-9
