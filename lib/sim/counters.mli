(** String-name reads of the counter store.

    {!Metrics} owns every counter. This module stays only because the
    end-to-end benchmark ([bench/e2e/workloads.ml]) reads counters by name
    through it. New code uses {!Metrics} and its typed keys. *)

type t = Metrics.t

val get_int : t -> string -> int
(** The value of the key called [name] ({!Metrics.of_name}); names outside
    the typed set read as zero. *)
