module Rat = Sdf.Rat

(** Schedule- and TDMA-constrained execution of a binding-aware SDFG
    (paper Section 8.2).

    Rather than encoding static-order schedules and TDMA wheels into the
    graph (which would force the HSDF conversion), they constrain the
    state-space exploration:

    - a processor-bound actor may only start firing when it is at the
      current position of its tile's static-order schedule and the tile's
      processor is idle (static order implies sequential execution);
    - the remaining execution time of a bound firing only decreases while
      the TDMA wheel of its tile is inside the slice reserved for this
      application. Wheels all start at phase 0; the phase relation between
      tiles is irrelevant because the sync actors of the binding-aware
      graph already assume worst-case arrival (Section 8.1).
    - connection and sync actors are not processor-bound: they fire
      self-timed, as in {!Analysis.Selftimed}.

    The execution is event driven: the completion time of a gated firing is
    computed in closed form from the wheel phase, so large execution times
    (H.263-scale) do not enlarge the state space. The state — token
    distribution, remaining execution times, schedule positions and wheel
    phases — eventually recurs; throughput is read off the periodic phase. *)

val tdma_finish : t:int -> tau:int -> w:int -> omega:int -> int
(** Completion time of [tau] units of work started at absolute time [t] on
    a wheel of [w] time units whose slice occupies phases [0, omega): work
    only progresses inside the slice. Closed form; shared with the list
    scheduler.
    @raise Deadlocked when [omega <= 0 < tau] (the work can never finish). *)

type result = {
  throughput : Rat.t;  (** of the application's output actor *)
  period : int;
  transient : int;
  states : int;
}

type partial = {
  reason : Budget.reason;  (** what ran out *)
  explored : int;  (** states stored before the stop *)
  time_reached : int;  (** how far into the transient the exploration got *)
  upper_bound : Rat.t;
      (** sound upper bound on the output actor's throughput: the
          {!Analysis.Selftimed.cycle_upper_bound} of the binding-aware
          graph under TDMA-inflated minimum firing durations (a phase-0
          start is the fastest any slice can serve a firing, and the
          static-order serialization the bound ignores can only slow the
          execution further); {!Rat.infinity} when no cycle constrains it *)
  provably_dead : bool;
      (** the throughput is exactly 0: a cycle holds no tokens, or work
          gated behind an empty slice can never finish *)
}
(** What a budget-exhausted constrained exploration still knows; the lower
    bound is always 0. A throughput constraint above [upper_bound] is
    refuted for sure; one below it remains undecided. *)

exception Deadlocked
exception State_space_exceeded of int

val analyze :
  ?observer:(int -> int -> unit) ->
  ?offsets:int array ->
  ?max_states:int ->
  Bind_aware.t ->
  schedules:Schedule.t option array ->
  result
(** [analyze ba ~schedules] explores the constrained execution. When
    given, [observer time actor] is called at every firing start, with
    nondecreasing times, which reconstructs the Fig.-5(c) transition
    chain. The execution is deterministic; the order of the starts within
    one instant is the engine's worklist order (the set of starts at each
    instant is what the semantics fixes).
    [schedules.(t)] orders the actors bound to tile [t] (it must mention
    exactly those actors); [None] for tiles hosting no actor. The slice
    sizes are taken from the binding-aware graph ([ba.slices]); a used tile
    with slice 0 can make no progress and yields {!Deadlocked}.

    [offsets] gives each tile's TDMA wheel a start phase (default all 0);
    the paper's conservative model makes no offset assumption, so this knob
    exists to {e simulate implementations}: build the binding-aware graph
    with {!Bind_aware.Aligned_wheels} (zero sync wait, real arrivals) and
    sweep offsets — the guaranteed throughput must lower-bound every such
    run (tested as a property; see the E22 bench).

    [max_states] defaults to [500_000].

    Observer-free analyses are memoized on {!cache_key} (see
    {!Analysis.Memo}): repeating the analysis of a structurally identical
    configuration returns the stored result, with stored [Deadlocked] /
    [State_space_exceeded] outcomes re-raised. An observer bypasses the
    cache.
    @raise Invalid_argument if a schedule mentions an actor not bound to
    its tile, or if [offsets] has the wrong length. *)

val analyze_reference :
  ?observer:(int -> int -> unit) ->
  ?offsets:int array ->
  ?max_states:int ->
  Bind_aware.t ->
  schedules:Schedule.t option array ->
  result
(** The pre-engine exploration (sorted completion lists, [Marshal]
    snapshots into a string-keyed [Hashtbl]), kept as the independent half
    of the engine-vs-reference differential checks and as the baseline of
    the exploration microbenchmark. Never memoized, never recorded in
    telemetry; same exceptions and validation as {!analyze}, and the two
    must agree exactly on result fields, visited-state count, deadlock
    and cap outcomes. Its observer fires in actor-index scan order, so the
    two observer streams agree as a multiset of starts per instant, with
    the instants in the same order. *)

val analyze_budgeted :
  ?observer:(int -> int -> unit) ->
  ?offsets:int array ->
  ?max_states:int ->
  budget:Budget.t ->
  Bind_aware.t ->
  schedules:Schedule.t option array ->
  (result, partial) Stdlib.result
(** {!analyze} under a resource budget: [Ok result] on completion within
    it, [Error partial] when it runs out. With [Budget.infinite] the
    outcome is always [Ok] and identical to {!analyze}; [Deadlocked] and
    [State_space_exceeded] still raise (analysis outcomes, not budget
    outcomes). Observer-free runs probe the memo cache first and store
    only completed outcomes — a partial never poisons the cache. *)

val cache_key :
  ?offsets:int array ->
  ?max_states:int ->
  Bind_aware.t ->
  schedules:Schedule.t option array ->
  string
(** Canonical structural serialization of a constrained-analysis input:
    binding-aware graph structure (channel endpoints, rates, tokens),
    execution times, tile assignment, per-tile TDMA wheels and slices,
    wheel offsets, static-order schedules, output actor and state cap.
    Actor/application names are deliberately excluded — throughput does
    not depend on them, so identical applications (e.g. copies in a
    multi-application workload) share cache entries. *)

val throughput_or_zero :
  ?max_states:int ->
  ?budget:Budget.t ->
  ?on_budget_stop:(Budget.reason -> unit) ->
  Bind_aware.t ->
  schedules:Schedule.t option array ->
  Rat.t
(** Like {!analyze} but mapping {!Deadlocked} and {!State_space_exceeded}
    to throughput 0 — the shape the slice-allocation binary search wants
    ("this allocation does not meet any constraint"). Under a finite
    [budget] (default infinite), a budget-exhausted probe also maps to 0:
    the search may only accept allocations whose throughput is proven.
    [on_budget_stop] is called with the reason whenever that happens, so
    the caller can tell a budget-cut 0 from a proven 0. *)
