(** Generic packed state-space exploration driver.

    Every throughput analysis in this library — plain self-timed
    ({!Analysis.Selftimed}), resource-constrained ({!Core.Constrained}),
    cyclo-static ({!Csdf.Selftimed}) and the scenario product space
    ({!Scenario.Product}) — explores the same shape of state space: a
    deterministic chain (or a branching graph, for the product) in which
    each step fires everything that can fire, snapshots the state, asks
    the seen-set whether the state recurred, and otherwise advances time.
    What differs between analyses is only the {e transition relation}:
    how a step fires, how the state is laid out in bytes, what payload
    words recurrence needs, and how the clock advances.

    [Explore] owns the shared machinery — the reusable {!Pack} writer,
    the open-addressing {!Stateset}, the state-cap check and the
    per-state {!Budget} probe — and takes the relation as a record of
    hooks. The instances stay bit-identical to their pre-unification
    behaviour: the driver stores a state first and then checks the cap
    ([length > max_states] after the store is the reference engines'
    [>= max_states] before it), and the budget probe is one load and one
    branch per state when the budget is infinite. *)

type t
(** A seen-set plus a reusable packed-state writer. *)

type relation = {
  fire : unit -> unit;
      (** Run the instant's firing fixpoint (start every enabled firing,
          completing zero-time ones on the spot). *)
  encode : unit -> unit;
      (** Write the recurrence state into {!pack} (already reset). The
          byte layout must be uniquely decodable — fixed field counts or
          length-prefixed groups — so byte equality is state equality. *)
  payload0 : unit -> int;
  payload1 : unit -> int;
      (** The two payload words stored with a first visit and returned on
          the revisit (visit clock and a firing count, for every current
          instance). *)
  advance : unit -> bool;
      (** Advance the clock to the next completion instant and apply the
          completions; [false] when nothing is outstanding (deadlock). *)
}
(** A pluggable transition relation; see the instances for examples. *)

type verdict =
  | Recurred of { p0 : int; p1 : int }
      (** A state was revisited; the payload words are the ones stored at
          its first visit. *)
  | Deadlocked  (** [advance] found nothing outstanding. *)
  | Cap_exceeded  (** More than [max_states] states were stored. *)
  | Budget_stop of Budget.reason  (** The per-state budget probe tripped. *)

val create : unit -> t

val pack : t -> Pack.t
(** The writer [encode] must fill; reset by the driver before each call.
    Instances capture it once so their hooks allocate nothing per state. *)

val length : t -> int
(** States stored so far. *)

val stats : t -> Stateset.stats

val run : t -> max_states:int -> budget:Budget.t -> relation -> verdict
(** Drive [relation] until a verdict: fire, encode, probe the seen-set,
    and on a fresh state check the cap, probe the budget and advance.
    May be called on a fresh [t] only — the seen-set keeps the visited
    states afterwards for [length]/[stats]. *)

val record_gauges : Stateset.stats -> unit
(** Set the shared [engine.*] gauges (arena bytes, resident bytes, bytes
    per state, occupancy, max probe) and record the probe-length histogram sample —
    the one telemetry block every engine instance reports after a run.
    Call under [Obs.enabled ()]. *)
