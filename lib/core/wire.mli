(** Deferral queues, queue→wire conversion, message byte accounting and
    commit-site identity (§4.1, §4.2).

    A deferring shim accumulates {!pending} register accesses per thread
    in a {!batch}; at a commit boundary the batch is lowered to the
    {!Gpushim.wire_access} form the client applies — reads become batch
    positions, write expressions are resolved against earlier reads of the
    same batch or against already-validated bindings — and the message
    sizes charged to the link are computed here, so cloud and client agree
    on the framing by construction. *)

type pending =
  | Qr of { reg : int; sym : Grt_util.Sexpr.sym }
  | Qw of { reg : int; expr : Grt_util.Sexpr.t }

type batch
(** One thread's deferral queue: its accesses in program order and, beside
    them, its reads in batch order. Growable arrays, reused across commits;
    {!clear} empties it without releasing storage. *)

val create_batch : unit -> batch
val length : batch -> int
val n_reads : batch -> int

val get : batch -> int -> pending
(** [get b i] is the [i]-th access, oldest first. *)

val read_reg : batch -> int -> int
val read_sym : batch -> int -> Grt_util.Sexpr.sym
(** [read_reg b i] / [read_sym b i] — register and symbol of batch read [i]. *)

val read_regs : batch -> int array
val read_syms : batch -> Grt_util.Sexpr.sym array
(** Fresh copies of the batch's read registers / symbols, in batch order. *)

val push_read : batch -> int -> Grt_util.Sexpr.sym -> unit
val push_write : batch -> int -> Grt_util.Sexpr.t -> unit
val clear : batch -> unit

exception Need_drain
(** A queued write references a {e speculative} binding from an earlier,
    not-yet-validated commit. Speculative values must never reach the
    client (§4.2): the caller drains outstanding commits — turning the
    binding into validated truth — and converts again. *)

val to_wire : batch -> Gpushim.wire_access array
(** Lower a batch to the client wire form, one element per access. Raises
    {!Need_drain} as described above; [Failure] on an unbound symbol that
    is not part of this batch (a shim bug, not a recoverable state). *)

val request_bytes : overhead:int -> int -> int
(** [request_bytes ~overhead n] — cloud→client commit message carrying [n]
    accesses: 24-byte header plus 14 bytes per access (opcode, register,
    operand) plus the configured per-message [overhead] (transport
    framing). *)

val response_bytes : overhead:int -> int -> int
(** [response_bytes ~overhead n] — client→cloud response carrying [n] read
    values: 16-byte header plus 8 bytes per value plus [overhead]. *)

type site = private { id : int; key : string }
(** An interned speculation site. [key] names it (in traces and
    {!Drivershim.Mispredict}); [id] indexes {!Spec_history}. Every distinct
    key has one id for the life of the process, so one history can be
    shared across sessions. *)

val site_key : fn:string -> trigger:string -> batch -> site
(** Stable identity of a driver commit site: the innermost hot function
    [fn] (or ["<cold>"]), the commit [trigger], and a hash of the batch's
    access signature (registers and read/write kinds, not values). *)

val poll_site : reg:int -> mask:int64 -> cond:Grt_gpu.Regs.poll_cond -> site
(** The site of an offloaded polling loop on [reg] until [mask] is set or
    clear: key ["poll:<reg name>:<mask hex>:set|clear"]. *)
