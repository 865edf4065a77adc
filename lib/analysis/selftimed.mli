module Sdfg = Sdf.Sdfg
module Rat = Sdf.Rat
module Repetition = Sdf.Repetition

(** Self-timed state-space throughput analysis (paper Section 8.2, after
    Ghamarian et al., ACSD'06 [10]).

    In a self-timed execution an actor fires as soon as sufficient tokens are
    present on all its inputs; the firing consumes the input tokens at its
    start, lasts the actor's execution time and produces the output tokens at
    its end. The state of the execution is the distribution of tokens over
    the channels plus the remaining execution times of the active firings.
    Because the execution is deterministic (maximal-progress), the visited
    states eventually recur; the throughput of an actor is its number of
    firings in the periodic phase divided by the period length.

    Auto-concurrency is unbounded, as in [10]: an actor may have several
    simultaneous firings unless a self-loop channel limits it. Consequently
    every actor must have at least one input channel, otherwise it could
    start infinitely many firings in a single instant.

    Execution times may be 0; zero-time firings complete instantaneously. *)

type result = {
  throughput : Rat.t array;
      (** per actor: firings per time unit in the periodic phase *)
  period : int;  (** duration of the periodic phase (time units) *)
  iterations_per_period : int;
      (** how many graph iterations one period contains; the firing count of
          actor [a] per period is [iterations_per_period * gamma a] *)
  transient : int;  (** time at which the recurrent state is first visited *)
  states : int;  (** states stored during exploration *)
}

type partial = {
  reason : Budget.reason;  (** what ran out *)
  explored : int;  (** states stored before the stop *)
  time_reached : int;  (** how far into the transient the exploration got *)
  firings : int;  (** total firings started *)
  iteration_upper_bound : Rat.t;
      (** sound upper bound on the graph's iteration rate (iterations per
          time unit), from the normalized-token / cycle-duration bound over
          the simple cycles (see {!cycle_upper_bound}); {!Rat.infinity}
          when no cycle constrains it *)
  upper_bound : Rat.t array;
      (** per actor: [iteration_upper_bound * gamma a], i.e. a value
          guaranteed to dominate the exact [throughput.(a)] the completed
          analysis would return ({!Rat.infinity} when unconstrained) *)
  provably_dead : bool;
      (** some cycle holds no tokens: no firing on it can ever start, so
          the periodic throughput is exactly 0 (the completed analysis
          would deadlock or never recur) *)
  dead_ruled_out : bool;
      (** every actor already started [gamma a] firings — a complete
          iteration is executable, so {!Deadlocked} is impossible *)
}
(** What a budget-exhausted exploration still knows. The lower bound on
    throughput is always 0 (the periodic phase was never reached), but the
    upper bound is sound: it never lies below the true value, so a
    constraint check that fails against [upper_bound] fails for sure. *)

exception Deadlocked
(** The execution reached a state with no active firing and no enabled
    actor. *)

exception State_space_exceeded of int
(** More states than the allowed maximum were visited; for consistent
    strongly-connected graphs this indicates the cap is too small, for
    non-strongly-connected graphs it may indicate unbounded token
    accumulation. The payload is the cap. *)

val analyze :
  ?observer:(int -> int -> unit) -> ?max_states:int -> Sdfg.t -> int array ->
  result
(** [analyze g exec_times] explores the self-timed execution of [g].
    [max_states] defaults to [2_000_000]. When given, [observer time actor]
    is called at every firing start, instants in time order, the starts of
    one instant in an unspecified order ({!Trace} sorts them by actor).

    Observer-free analyses are memoized on {!cache_key} (see {!Memo}):
    repeat runs on a structurally identical graph with the same execution
    times return the stored result — including stored [Deadlocked] /
    [State_space_exceeded] outcomes, which are re-raised. Passing an
    observer bypasses the cache, since a cached result cannot replay the
    firing sequence.

    @raise Deadlocked see {!Deadlocked}.
    @raise State_space_exceeded see {!State_space_exceeded}.
    @raise Invalid_argument if some actor has no input channel, if
      [exec_times] has the wrong length or contains a negative entry, or if
      the graph is empty or inconsistent. *)

val analyze_budgeted :
  ?observer:(int -> int -> unit) ->
  ?max_states:int ->
  budget:Budget.t ->
  Sdfg.t ->
  int array ->
  (result, partial) Stdlib.result
(** [analyze_budgeted ~budget g exec_times] is {!analyze} under a resource
    budget: [Ok result] when the exploration completes within it,
    [Error partial] when it runs out (see {!partial}). With
    [Budget.infinite] the outcome is always [Ok] and identical to
    {!analyze}. [Deadlocked] and [State_space_exceeded] still raise — they
    are analysis outcomes, not budget outcomes.

    Observer-free runs probe the memo cache first (a completed outcome
    answers without spending budget) and store only completed outcomes:
    a [Partial] never poisons the cache.

    @raise Deadlocked / State_space_exceeded / Invalid_argument as
    {!analyze}. *)

val validate : Sdfg.t -> int array -> unit
(** The input checks of {!analyze}, shared with [Check.Selftimed_reference].
    @raise Invalid_argument as {!analyze}. *)

val cycle_upper_bound :
  ?max_cycles:int -> durations:(int -> int) -> Sdfg.t -> Rat.t
(** [cycle_upper_bound ~durations g] is a sound upper bound on the
    iteration rate of any execution of [g] in which each firing of actor
    [a] occupies it for at least [durations a] time units: the minimum
    over the simple cycles of (normalized initial tokens on the cycle) /
    (sum of its actors' durations). {!Rat.zero} when some cycle holds no
    tokens (provably dead), {!Rat.infinity} when no cycle constrains the
    rate. Sound under truncated enumeration ([max_cycles], default
    100_000): dropping cycles only weakens the bound. *)

val cache_key : ?max_states:int -> Sdfg.t -> int array -> string
(** Canonical structural serialization of an analysis input: actor count,
    channels as [(src, dst, prod, cons, tokens)] tuples in index order,
    execution times and the state cap. Names are deliberately excluded —
    throughput does not depend on them, so structurally identical graphs
    from different applications share one cache entry. Two inputs have
    equal keys iff the analysis is guaranteed to produce equal results. *)

val throughput : ?max_states:int -> Sdfg.t -> int array -> int -> Rat.t
(** [throughput g exec_times a] is the throughput of actor [a]. *)
