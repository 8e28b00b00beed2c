(** Span-based binary delta between two equal-length buffers.

    Each shim transfers only the deltas of memory dumps between consecutive
    synchronization points (§5). A delta is the list of changed spans with
    their new contents; applying it to the old buffer reconstructs the new
    one. Deltas of mostly-unchanged pages are tiny and further shrink under
    range coding. *)

val diff : old_:bytes -> fresh:bytes -> bytes
(** [diff ~old_ ~fresh] encodes the changes needed to turn [old_] into
    [fresh]. Both buffers must have the same length. *)

val apply : old_:bytes -> delta:bytes -> bytes
(** [apply ~old_ ~delta] reconstructs the fresh buffer into a new one;
    [old_] is only read. Raises [Failure] if the delta does not match
    [old_]'s length, names a span outside it, or is truncated. *)

val apply_in_place : page:bytes -> delta:bytes -> unit
(** [apply_in_place ~page ~delta] is {!apply} with [~old_:page], written
    over [page] itself. It fails like {!apply}, and a span that fails to
    read leaves the spans before it written. *)
