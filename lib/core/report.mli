(** Exportable session reports.

    One JSON document per recording session, assembled from an
    {!Orchestrate.record_outcome}: identity (workload / mode / profile /
    seed), headline summary numbers, the full counter set, and — when the
    session was recorded with [observe] — the latency/size histograms and
    the per-phase span attribution. The summary numbers are read from the
    session's counter store, so they cover the whole session, every attempt
    after a rollback included, and agree with the [metrics] member. The
    schema is versioned and checked by {!validate} so downstream tooling
    can fail fast on drift. *)

val schema : string
(** ["grt-session-report"]. *)

val version : int
(** Current schema version ([1]). *)

val of_outcome :
  workload:string ->
  mode:string ->
  profile:string ->
  seed:int64 ->
  Orchestrate.record_outcome ->
  Grt_util.Json.t
(** Build the report document. [histograms] and [phases] members are
    present iff the outcome's store carries a {!Grt_sim.Hist.set} and the
    outcome a {!Grt_sim.Tracer.t} (i.e. the session ran with [observe]). *)

val validate : Grt_util.Json.t -> (unit, string) result
(** Structural schema check: schema/version match, the session and summary
    members carry the required typed fields, metrics is an object of
    numbers, and histograms/phases (when present) have well-formed
    entries. *)

val pp_timeline : Format.formatter -> Grt_util.Json.t -> unit
(** Human-readable view of a report: the session line, the per-phase
    self/total attribution (when [phases] is present) and histogram
    quantiles (when [histograms] is present). It renders what is there
    rather than failing: a missing session or summary prints as ["n/a"],
    and missing phases (a session recorded without [observe]) print a
    placeholder line. [grt_inspect --timeline] shows a report only after
    {!validate} accepts it. *)

(** {2 Fleet reports}

    One JSON document per [grt_fleet] run: the fleet row, the service
    counter rollup, and — when the run was observed — SLO latency
    quantiles, per-key rollups and memo-cache profiles. *)

val fleet_schema : string
(** ["grt-fleet-report"]. *)

val fleet_version : int
(** Current fleet schema version ([1]). *)

val of_fleet :
  fleet:Grt_util.Json.t ->
  stats:Service.stats ->
  ?memo:Grt_util.Json.t ->
  observation:Service.observation option ->
  unit ->
  Grt_util.Json.t
(** Build the fleet report. [fleet] is the experiment's own row object
    (embedded verbatim); [stats] becomes the [service] member (counts plus
    hit rate). With an [observation], the [slo] member carries p50/p90/p99
    summaries of the fleet histogram set and [per_key] the per-label
    turnaround/TTFB rollups. [memo] (the {!Grt_util.Memo_stats.to_json}
    snapshot) is embedded when given. *)

val validate_fleet : Grt_util.Json.t -> (unit, string) result
(** Structural check for fleet reports: schema/version match, [fleet] is a
    flat object of scalars, [service] carries the required numeric counts,
    and [slo]/[per_key]/[memo] (when present) have well-formed entries. *)

val pp_fleet : Format.formatter -> Grt_util.Json.t -> unit
(** Human-readable fleet view: service headline, SLO quantile table,
    hottest keys and memo-cache profile. Absent optional sections print as
    ["n/a"]. *)
