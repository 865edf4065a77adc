(** Differential oracles: independent routes to the same throughput.

    The library computes throughput three ways — the self-timed state-space
    exploration (paper Section 8.2), the maximum cycle ratio of the HSDF
    expansion ([gamma a / MCR] per actor, the Section-1 baseline route),
    and memoized replays of either — and nothing forces them to agree
    except correctness. These oracles assert that they do:

    - [diff.engine-vs-reference]: the packed state-space engine against
      the pre-engine Marshal/Hashtbl exploration kept as
      {!Selftimed_reference.analyze}; every result field and every
      negative outcome must match exactly.
    - [diff.selftimed-vs-mcr]: on any well-formed case, both routes report
      the same deadlock verdict, and on live cases every actor's
      self-timed throughput equals [gamma a * (1 / MCR)]. Cases whose
      state space exceeds the cap, or whose MCR gives no finite bound, are
      skipped.
    - [diff.memo-agreement]: a cold analysis, a warm (cache-hit) replay
      and a memo-disabled analysis return identical results, including
      reified [Deadlocked]/[State_space_exceeded] outcomes.
    - [budget.partial-soundness]: under a random finite state budget, a
      partial outcome's anytime upper bound dominates the true throughput
      of every actor, its deadlock verdicts ([provably_dead],
      [dead_ruled_out]) agree with reality, and a budgeted run that
      completes matches the unbudgeted reference.

    - [diff.scenario-vs-enumeration]: a small scenario FSM derived from
      the case ({!Gen.Scenariogen.derive}) is analysed twice — by
      {!Scenario.Product.analyze} (packed product space, Karp) and by a
      structurally independent naive route (Hashtbl-interned product
      automaton, every simple cycle enumerated) — and the worst-case
      rates, state counts and deadlock verdicts must agree exactly.
      Skipped when the product automaton or its cycle set outgrows the
      enumeration caps.

    The hidden mutant switch corrupts the MCR replay by an off-by-one in
    the initial tokens of the first HSDF channel; the fuzz driver's
    self-check flips it to prove the harness actually detects (and
    shrinks) such divergence. The scenario mutant does the same for the
    scenario route: it drops every mode-transition delay on the engine
    side only, so a positive delay on a critical product cycle becomes a
    detectable (and shrinkable) rate divergence. *)

val mutant : bool ref
(** Off by default; enabled by [sdf3_fuzz --inject-mutant] only. *)

val scenario_mutant : bool ref
(** Off by default; enabled by [sdf3_fuzz --inject-scenario-mutant] only. *)

val engine_vs_reference :
  max_states:int -> rng:Gen.Rng.t -> Case.t -> Oracle.outcome
(** [diff.engine-vs-reference]: the packed state-space engine
    ({!Analysis.Selftimed.analyze}) against the retained Marshal/Hashtbl
    reference ({!Selftimed_reference.analyze}) — equal throughput
    vectors, period, iterations, transient and visited-state count, and
    agreeing deadlock/cap outcomes. Never skips. *)

val observer_vs_reference :
  max_states:int -> rng:Gen.Rng.t -> Case.t -> Oracle.outcome
(** {!engine_vs_reference} under {!Validator.observers_agree}. *)

val selftimed_vs_mcr :
  max_states:int -> rng:Gen.Rng.t -> Case.t -> Oracle.outcome

val memo_agreement :
  max_states:int -> rng:Gen.Rng.t -> Case.t -> Oracle.outcome
(** Leaves the global memo switch as it found it; clears the tables. *)

val budget_partial_soundness :
  max_states:int -> rng:Gen.Rng.t -> Case.t -> Oracle.outcome
(** [budget.partial-soundness]: draws a state budget in [\[1, 64\]] from
    [rng] and checks the anytime contract of
    {!Analysis.Selftimed.analyze_budgeted} against
    {!Selftimed_reference.analyze}. *)

val scenario_vs_enumeration :
  max_states:int -> rng:Gen.Rng.t -> Case.t -> Oracle.outcome
(** [diff.scenario-vs-enumeration]: see above. Draws the scenario FSM
    from [rng]; honours {!scenario_mutant}. *)

val oracles : Oracle.t list
