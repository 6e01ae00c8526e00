(** Unified observability: a named-metric registry plus an optional event
    timeline.

    Simulation components register label-scoped metrics (counters, latency
    summaries, histograms — e.g. ["storage.manager.clean_ops"]) and
    record into them through handles.  Everything is disabled by default:
    each recording call is one atomic load and a branch, so instrumented hot
    paths cost nothing measurable until a harness opts in with
    {!set_metrics} / {!set_timeline}.  A float argument computed at the call
    site is boxed before the call, though, so a hot path that computes a
    value only for a probe guards the call with {!metrics_enabled}.

    {2 Domains}

    State is kept per domain ([Domain.DLS]), so {!Pool} workers record
    without locks and without perturbing each other.  {!snapshot} and
    {!reset} act on the calling domain only — a pool work item that resets,
    runs, and snapshots sees exactly its own activity, deterministically at
    any job count (items run sequentially within a domain).  {!snapshot_all}
    and {!reset_all} merge/clear every domain that ever recorded; call them
    only while no worker is mid-item (between {!Pool.run_map} calls).

    {2 Timeline}

    When enabled, {!span} and {!instant} record events (op apply, flash
    program/erase, cleaner pass, remount, fault) that
    {!Timeline.to_chrome_json} turns into Chrome [trace_event] JSON loadable
    in Perfetto or about:tracing.  The buffer is bounded; events past the
    cap are counted as dropped, never silently lost. *)

type counter
type summary
type histogram

val counter : string -> counter
(** Handle to the counter named [s].  Handles are cheap names, safe to
    create at module-load time and share across domains; the backing cell
    is interned per domain on first use. *)

val summary : string -> summary
val histogram : string -> histogram

(** {1 Enabling} *)

val metrics_enabled : unit -> bool
val set_metrics : bool -> unit
val timeline_enabled : unit -> bool
val set_timeline : bool -> unit

(** {1 Recording} — no-ops while the corresponding switch is off. *)

val incr : counter -> unit
val add : counter -> int -> unit
val observe : summary -> float -> unit
val observe_hist : histogram -> float -> unit

val span :
  name:string ->
  cat:string ->
  ?tid:int ->
  ?args:(string * string) list ->
  start:Time.t ->
  finish:Time.t ->
  unit ->
  unit
(** A complete ("X") event covering [start..finish].
    @raise Invalid_argument if [finish] precedes [start]. *)

val instant :
  name:string -> cat:string -> ?tid:int -> ?args:(string * string) list ->
  at:Time.t -> unit -> unit

(** {1 Snapshots} *)

module Snapshot : sig
  type value =
    | Counter of int
    | Summary of { n : int; sum : float; vmin : float; vmax : float }
    | Histogram of (float * float * int) list
        (** [(lo, hi, count)] per non-empty bucket, ascending — the
            {!Stat.Histogram.buckets} shape. *)

  type t = (string * value) list
  (** Sorted by metric name; at most one entry per name. *)

  val empty : t
  val find : t -> string -> value option

  val counter_value : t -> string -> int
  (** 0 when absent or not a counter. *)

  val merge : t -> t -> t
  (** Pointwise combination: counters and histogram buckets add (exact,
      integer), summaries pool (n and sum add, extrema widen).  [merge] is
      commutative up to float addition; on counters and histograms it is
      exact and order-independent. *)

  val diff : later:t -> earlier:t -> t
  (** What happened between two snapshots of the same registry: counters
      and histogram buckets subtract (clamped at zero), summary [n]/[sum]
      subtract (extrema cannot be un-observed and keep [later]'s). *)

  val is_zero : value -> bool
  (** True for a zero counter and an empty summary or histogram. *)

  val to_json : t -> Json.t
end

val snapshot : unit -> Snapshot.t
(** The calling domain's metrics. *)

val reset : unit -> unit
(** Clear the calling domain's metrics and timeline — the "start the
    measured window clean" primitive [Machine.preload] and
    [Manager.reset_traffic] route through. *)

val snapshot_all : unit -> Snapshot.t
(** {!Snapshot.merge} over every domain that ever recorded. *)

val reset_all : unit -> unit

(** {1 Timeline} *)

module Timeline : sig
  type event = {
    ev_name : string;
    ev_cat : string;
    ev_ts_ns : int;
    ev_dur_ns : int option;  (** [None] for an instant event. *)
    ev_tid : int;
    ev_args : (string * string) list;
  }

  val events : unit -> event list
  (** The calling domain's events, sorted by timestamp (stable). *)

  val events_all : unit -> event list
  val dropped : unit -> int
  (** Events discarded after the buffer cap, across all domains. *)

  val to_chrome_json : event list -> Json.t
  (** A Chrome [trace_event] document: [{"traceEvents": [...]}] with
      timestamps and durations in microseconds, complete events as
      [ph:"X"] and instants as [ph:"i"]. *)
end
