module Appgraph = Appmodel.Appgraph
module Archgraph = Platform.Archgraph

(** An iterative wrapper around {!Strategy.allocate}.

    The paper's strategy executes its three steps exactly once; the SDF3
    tool flow that grew out of it revises the binding when the time-slice
    step discovers the throughput constraint cannot be met. This module
    provides that loop in a simple, deterministic form: a list of tile-cost
    settings is tried in order (by default the five settings of Table 4,
    ending with the paper's derived (0,1,2)), and the first allocation that
    satisfies the constraint wins. *)

type attempt = {
  weights : Cost.weights;
  outcome : (Strategy.allocation, Strategy.failure) result;
}

type result = {
  allocation : Strategy.allocation option;  (** the first success, if any *)
  attempts : attempt list;  (** everything tried, in order *)
}

val default_weight_ladder : Cost.weights list
(** (0,1,2), (0,0,1), (0,1,0), (1,1,1), (1,0,0) — communication-aware
    settings first, the Table-4 ranking on the mixed set. *)

val allocate_with_retry :
  ?weight_ladder:Cost.weights list ->
  ?connection_model:Bind_aware.connection_model ->
  ?max_states:int ->
  ?budget:Budget.t ->
  Appgraph.t ->
  Archgraph.t ->
  result
(** Try each setting of the ladder until an allocation succeeds. Binding
    failures, scheduling deadlocks, slice failures and budget-exhausted
    rungs all advance to the next setting — under a finite [budget]
    (default infinite) a rung that runs out degrades to the next rung
    (counted as ["budget.rung_aborts"]) instead of killing the run, and
    an absolute deadline makes the remaining rungs fail fast. *)
