(** Per-site speculation history (§4.2, §7.3).

    Maps a driver commit site, by its interned id ({!Wire.site}: function @
    trigger # access-signature, or an offloaded poll's register, mask and
    condition), to the read-value vectors its last few commits produced,
    kept in a fixed ring per site. A site qualifies for speculation once its last [k] outcomes
    are identical ({!confident}); the paper uses k = 3. The table is
    sharable across record runs of different workloads — §7.3's "retaining
    register access history in between" — which is why it lives outside
    {!Drivershim.t} and is passed in at create time.

    Policy notes, enforced by the callers:
    - {!observe} must record only true client observations, never injected
      fault values or timeout sentinels, or one transient fault poisons
      every later prediction at the site;
    - {!forget} drops a site whose poll timed out — the prediction is about
      to fail validation, and stale confidence would re-speculate the same
      wrong value on every recovery attempt. *)

type t

val create : unit -> t

val observe : t -> k:int -> int -> int64 array -> unit
(** Record a site's newest outcome vector, keeping at most [max 1 k]
    entries. The table keeps the array itself: the caller must not mutate
    it afterwards. *)

val forget : t -> int -> unit

val confident : t -> k:int -> int -> int64 array option
(** The predicted outcome vector, iff the site has at least [k] recorded
    outcomes and they are all equal. A hit whose evidence includes an entry
    observed before the current epoch also bumps {!cross_hits}. *)

val new_epoch : t -> unit
(** Start a new observation epoch. The recording service calls this at each
    session start on a shared table, so {!cross_hits} can distinguish
    confidence earned within the running session from confidence carried
    over from previous sessions of the same (network, SKU). *)

val cross_hits : t -> int
(** Confident hits so far whose evidence spans a previous epoch — §7.3's
    cross-session speculation benefit, exported by the service as
    [spec.history_cross_hits]. *)
