(** Telemetry for the allocation flow: counters, gauges, timers, log-bucketed
    histograms, hierarchical spans, structured events and a Chrome-trace-event
    timeline, collected in a process-global in-memory registry with a JSON
    serializer and a Logs-backed live sink.

    Telemetry is {e disabled by default}. Every recording entry point
    checks one flag and returns immediately while disabled, so
    instrumenting a hot path costs a single branch. Enable with
    {!set_enabled} (the CLIs do this when [--metrics] or [--trace] is
    given), run the workload, then serialize with {!json_string} /
    {!write_channel} and {!Trace.write_channel}.

    The registry is thread-safe: recording from concurrent domains (the
    {!Par}-driven fan-outs) is serialised on one internal mutex and the
    span stack is domain-local.

    {b JSON schema} (stable key names, [schema_version] 2):
    {v
    { "schema_version": 2,
      "counters":   { "<name>": <int>, ... },
      "gauges":     { "<name>": <number>, ... },
      "timers":     { "<name>": { "count": <int>, "total_s": <number>,
                                  "mean_s": <number>, "stddev_s": <number>,
                                  "min_s": <number>, "max_s": <number> }, ... },
      "histograms": { "<name>": { "count": <int>, "p50": <number>,
                                  "p90": <number>, "p99": <number>,
                                  "max": <number> }, ... },
      "events":     [ { "kind": "<kind>", "<field>": <value>, ... }, ... ],
      "events_dropped": { "<kind>": <int>, ... } }
    v}
    Counter/gauge/timer/histogram keys are sorted; events appear in
    emission order (capped at 10_000 by default, see {!set_event_cap}; the
    overflow is counted per event kind in [events_dropped]). Timer keys
    recorded through {!Span.with_} are full span paths, e.g.
    ["flow.attempt/strategy.bind"]. The metric-name catalogue of the
    instrumented flow is documented in README.md ("Observability"). *)

val enabled : unit -> bool
(** True when telemetry is enabled. *)

val set_enabled : bool -> unit

val reset : unit -> unit
(** Zero all counters and histograms (handles from {!Counter.make} /
    {!Histogram.make} stay valid), drop all gauges, timers and events.
    Registered sinks, the event cap and the {!Trace} buffer are kept. *)

val set_event_cap : int -> unit
(** Cap on stored events (default 10_000). Events emitted beyond the cap
    are dropped and counted per kind in [events_dropped]. Raising the cap
    does not resurrect dropped events; the cap survives {!reset}. *)

(** Monotonic integer counters. *)
module Counter : sig
  type t
  (** A pre-registered handle; cheaper than by-name access on hot paths. *)

  val make : string -> t
  (** Register (or look up) the counter [name]. The counter appears in the
      serialized registry even at value 0. *)

  val incr : ?by:int -> t -> unit
  val add : string -> int -> unit
  val value : string -> int
  (** 0 for a counter that was never touched. *)
end

(** Last-value-wins measurements (hash-table load factors, blow-up
    ratios). *)
module Gauge : sig
  val set : string -> float -> unit
  val set_int : string -> int -> unit
  val value : string -> float option
end

(** Duration accumulators: count / total / mean / stddev / min / max. The
    standard deviation is maintained with Welford's online update — two
    extra float fields mutated in place, no allocation on the record
    path. *)
module Timer : sig
  type snapshot = {
    count : int;
    total_s : float;
    min_s : float;
    max_s : float;
    stddev_s : float;
  }

  val record : string -> float -> unit
  (** [record name seconds] folds one measured duration into [name]. *)

  val time : string -> (unit -> 'a) -> 'a
  (** Run the thunk, recording its wall-clock duration under [name]
      (wall, not CPU: process CPU time sums over all running domains). *)

  val snapshot : string -> snapshot option
end

(** Log-bucketed value distributions for hot-path measurements where a
    {!Timer}'s four aggregates are too coarse: slice-probe latencies, memo
    lookup times, states/s heartbeats, engine probe lengths.

    Values land in power-of-two buckets (one [frexp] plus one array
    increment per record), so recording is O(1) and allocation-free;
    quantiles are estimated from the buckets (exact within a factor of 2,
    clamped to the observed min/max — a single-valued histogram reports
    that value exactly). Serialized as count/p50/p90/p99/max. *)
module Histogram : sig
  type t
  (** A pre-registered handle; cheap enough for per-probe recording. *)

  val make : string -> t
  (** Register (or look up) the histogram [name]. *)

  val record : t -> float -> unit
  val add : string -> float -> unit

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk, recording its wall-clock duration in seconds. The
      thunk runs unmeasured while telemetry is disabled. *)

  type snapshot = {
    count : int;
    p50 : float;
    p90 : float;
    p99 : float;
    min : float;
    max : float;
  }

  val snapshot : string -> snapshot option

  val all : unit -> (string * snapshot) list
  (** Every registered histogram with its current snapshot, sorted by
      name — the histogram section of {!snapshot_json} as an association
      list (what the daemon's [stats] verb serves over the wire). *)
end

val counters_snapshot : unit -> (string * int) list
(** All registered counters with their current values, sorted by name —
    the counter section of {!snapshot_json} as an association list. *)

(** Hierarchical timing scopes. [Span.with_ "strategy.bind" f] runs [f]
    and records its duration in a {!Timer} keyed by the ["/"]-joined path
    of enclosing spans (["flow.attempt/strategy.bind"] when nested under a
    ["flow.attempt"] span). When a {!Trace} is started, every span also
    emits a Chrome-trace ["B"]/["E"] pair on the calling domain's
    track. *)
module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** Exception-safe: the span is closed and recorded on raise. *)

  val current : unit -> string list
  (** Enclosing span names, outermost first; [[]] outside any span. *)
end

(** Structured one-off records ("one attempt per weight-ladder rung").
    While a {!Trace} is started, every emitted event is mirrored as an
    instant event on the timeline. *)
module Event : sig
  type field = String of string | Int of int | Float of float | Bool of bool

  val emit : string -> (string * field) list -> unit
  (** [emit kind fields] appends an event. The field name ["kind"] is
      reserved for the event kind in the JSON encoding. *)

  val count : string -> int
  (** Number of stored events of the given kind. *)

  val dropped : string -> int
  (** Number of events of the given kind dropped at the cap. *)

  val all : unit -> (string * (string * field) list) list
  (** All stored events, oldest first. *)
end

(** Minimal JSON document model used by the serializer, with a matching
    reader used by the trace validator and the report generator. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Assoc of (string * t) list

  val to_string : t -> string
  (** Pretty-printed (2-space indent), newline-terminated. Non-finite
      floats are clamped to 0 to keep the document valid. *)

  val to_compact_string : t -> string
  (** One-line form (no spaces, no trailing newline, same escaping) for
      newline-delimited protocols: the [sdf3_serve] wire format and the
      batch/server JSONL journals. *)

  val parse : string -> (t, string) result
  (** Strict parser for the documents this library writes (and ordinary
      machine-generated JSON): no trailing garbage, ASCII escapes decoded,
      [\uXXXX] beyond ASCII kept verbatim. Numbers without [.]/[e] that
      fit an [int] parse as [Int]. *)

  val member : string -> t -> t option
  (** [member k (Assoc kvs)] is the value bound to [k], [None] otherwise. *)
end

(** Timeline tracing in the Chrome trace-event JSON array format — load
    the written file in Perfetto ([ui.perfetto.dev]) or
    [chrome://tracing].

    A trace is {e started} once per process ({!start}; the CLIs do this
    for [--trace FILE]) and records, while telemetry is enabled:
    {!Span.with_} scopes as ["B"]/["E"] duration pairs, {!Event.emit}
    records and explicit {!instant} calls as instant events, {!counter}
    samples as counter tracks, and {!async_begin}/{!async_end} pairs as
    async arcs. Every record carries the calling domain's id as its [tid],
    so work fanned out through the {!Par} pool renders as parallel tracks
    ({!set_thread_name} labels them). Timestamps are microseconds since
    {!start}, clamped per track so each track is non-decreasing. *)
module Trace : sig
  val start : unit -> unit
  (** Begin collecting (idempotent; the timestamp origin is set on the
      first call). Recording additionally requires {!set_enabled}[ true]. *)

  val active : unit -> bool

  val reset : unit -> unit
  (** Drop all collected records, track names and the started flag. *)

  val set_cap : int -> unit
  (** Cap on stored trace records (default 1_000_000); overflow is
      dropped and counted in {!dropped}. *)

  val dropped : unit -> int

  val set_thread_name : string -> unit
  (** Label the calling domain's track in the rendered timeline. Recorded
      even before {!start} so pool workers can self-label at spawn. *)

  val instant : ?args:(string * Event.field) list -> string -> unit
  (** A point-in-time marker (phase ["i"]) on the calling domain's
      track. *)

  val counter : string -> float -> unit
  (** A sample on a counter track (phase ["C"]), rendered by trace viewers
      as a value-over-time graph. *)

  val async_begin : ?cat:string -> id:int -> string -> unit
  (** Open an async arc (phase ["b"]). Arcs are matched by
      [(cat, id, name)] and may cross domains. *)

  val async_end : ?cat:string -> id:int -> string -> unit

  val json : unit -> Json.t
  (** The collected timeline as a Chrome-trace JSON array: metadata
      records first (process name, one [thread_name] per track), then all
      events oldest-first. *)

  val to_string : unit -> string
  val write_channel : out_channel -> unit

  type summary = { events : int; tracks : int }

  val validate : Json.t -> (summary, string) result
  (** Structural validator for traces in the format {!json} writes: the
      document is an array of objects, every record carries a known
      single-letter [ph], a [name], integer [pid]/[tid] and a finite
      [ts >= 0]; per [tid], timestamps are non-decreasing and ["B"]/["E"]
      pairs are balanced and well-nested. Used by the trace unit tests and
      [sdf3_report --check-trace] (CI runs it on every uploaded trace). *)
end

(** States-per-second heartbeats, designed to be driven by
    [Budget.set_probe_hook]: the budget's amortized slow probe (every
    [Budget.probe_interval] checks) calls {!probe} with the exploration's
    current state count; the delta against the calling domain's previous
    probe becomes one ["engine.states_per_sec"] {!Histogram} sample and
    one {!Trace.counter} sample. A state count smaller than the previous
    probe's means a new exploration started on this domain and only
    re-bases the reference point. *)
module Heartbeat : sig
  val probe : states:int -> unit
end

val snapshot_json : unit -> Json.t
(** The registry as a JSON document (see the schema above). *)

val json_string : unit -> string
val write_channel : out_channel -> unit

(** Pluggable live sinks, called synchronously at span end and event
    emission (only while telemetry is enabled). *)
module Sink : sig
  type output =
    | Span_end of { path : string; seconds : float }
    | Event_record of { kind : string; fields : (string * Event.field) list }

  val register : (output -> unit) -> unit
  val clear : unit -> unit

  val logs : unit -> unit
  (** Register a live reporter logging every span end and event at debug
      level on the ["sdfalloc.obs"] source. *)
end

(** Human-readable registry dumps. *)
module Report : sig
  val pp : Format.formatter -> unit -> unit
  val log : unit -> unit
  (** Log the {!pp} dump at info level on ["sdfalloc.obs"]. *)
end
