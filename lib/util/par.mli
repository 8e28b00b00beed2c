(** Host parallelism facts. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()]: the host's usable core count, as
    recorded in benchmark host metadata. *)
