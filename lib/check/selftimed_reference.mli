(** The pre-engine self-timed exploration: sorted completion lists, a
    round-robin actor-index fixpoint and [Marshal] snapshots into a
    string-keyed [Hashtbl]. Kept as the reference of
    [diff.engine-vs-reference] and [budget.partial-soundness]; never
    memoized, never recorded in telemetry. *)

val analyze :
  ?observer:(int -> int -> unit) -> ?max_states:int -> Sdf.Sdfg.t ->
  int array -> Analysis.Selftimed.result
(** Same contract as {!Analysis.Selftimed.analyze}; the observer sees
    each instant's starts in scan order. *)
