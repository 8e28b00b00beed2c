type t = Metrics.t

let get_int t name = match Metrics.of_name name with Some k -> Metrics.get_int t k | None -> 0
